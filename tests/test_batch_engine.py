"""Batched mission engine: edge-case correctness.

Everything here pins bit-identity between the lockstep engine and the
serial runner on the paths the throughput benchmark does not exercise:
single-lane batches, ragged termination, pixel-reading CNN lanes,
ineligible-lane and mid-run-refusal fallback, and cache-entry sharing
through the sweep runner.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np
import pytest

from repro.app.perception import CnnPerception
from repro.batch import (
    BatchIneligible,
    batch_eligible,
    batch_group_key,
    kernels,
    run_batch,
)
from repro.batch.engine import BatchEngine
from repro.batch.infer import BatchedCnnPerception
from repro.core import packets as pk
from repro.core.config import CoSimConfig
from repro.core.cosim import CoSimulation, run_mission
from repro.core.faults import FaultPlan
from repro.core.packets import PacketType
from repro.dnn.resnet import build_trainable_trailnet
from repro.env.rpc import RpcServer
from repro.sweep import ResultCache, SweepRunner, mission_signature


def _cfg(**overrides) -> CoSimConfig:
    base = dict(
        world="tunnel",
        soc="A",
        model="resnet6",
        max_sim_time=1.0,
        check_invariants=True,
    )
    base.update(overrides)
    return CoSimConfig(**base)


class TestEligibility:
    def test_default_dnn_quadrotor_is_eligible(self):
        eligible, reason = batch_eligible(_cfg())
        assert eligible and reason == ""

    @pytest.mark.parametrize(
        "overrides",
        [
            {"controller": "mpc"},
            {"vehicle": "car"},
            {"faults": FaultPlan()},
            {"transport": "tcp"},
        ],
        ids=["mpc", "car", "faults", "tcp"],
    )
    def test_unvectorized_features_are_ineligible(self, overrides):
        eligible, reason = batch_eligible(_cfg(**overrides))
        assert not eligible and reason

    def test_group_key_ignores_per_lane_fields(self):
        # Seed, model and mission length vary per lane within a group.
        key = batch_group_key(_cfg())
        assert batch_group_key(_cfg(seed=7, model="resnet18", max_sim_time=2.0)) == key

    def test_group_key_splits_on_world(self):
        assert batch_group_key(_cfg()) != batch_group_key(_cfg(world="s-shape"))


class TestBatchBitIdentity:
    def test_batch_of_one_equals_serial(self):
        config = _cfg(seed=3)
        serial = run_mission(config)
        (batched,) = run_batch([config])
        assert mission_signature(batched) == mission_signature(serial)

    def test_ragged_termination_matches_serial(self):
        # The middle lane exits earliest; the survivors must advance
        # exactly as if the finished lane had never shared their batch.
        configs = [
            _cfg(seed=0, max_sim_time=1.0),
            _cfg(seed=1, max_sim_time=0.4),
            _cfg(seed=2, max_sim_time=1.2),
        ]
        serial = [mission_signature(run_mission(c)) for c in configs]
        batched = [mission_signature(r) for r in run_batch(configs)]
        assert batched == serial

    def test_mid_batch_fault_plan_runs_serial(self):
        # An ineligible (fault-injected) config between two eligible ones:
        # it must route through the serial runner, the rest still batch,
        # and the result order must follow the input order.
        configs = [
            _cfg(seed=0),
            _cfg(seed=1, faults=FaultPlan()),
            _cfg(seed=2),
        ]
        assert not batch_eligible(configs[1])[0]
        serial = [mission_signature(run_mission(c)) for c in configs]
        report = SweepRunner(workers=1, batch_size=3).run(configs)
        assert report.batched_missions == 2
        assert [mission_signature(r) for r in report.results()] == serial

    def test_mixed_models_match_serial(self):
        configs = [_cfg(seed=0, model="resnet6"), _cfg(seed=1, model="resnet11")]
        serial = [mission_signature(run_mission(c)) for c in configs]
        batched = [mission_signature(r) for r in run_batch(configs)]
        assert batched == serial

    def test_batched_cnn_lanes_match_serial_cnn(self):
        # Lanes whose perception reads the camera pixels: every inference
        # must come from the engine's one batched forward pass, and the
        # missions must fly as serial CnnPerception ones do.  The argmax
        # policy consumes class predictions only, so the batched GEMM's
        # float32 roundoff (the engine's tolerance site) cannot move them.
        model = build_trainable_trailnet(seed=7)
        configs = [_cfg(seed=s, argmax_policy=True) for s in (0, 1)]
        perceptions = [BatchedCnnPerception(model) for _ in configs]
        results = run_batch(configs, perceptions)
        for config, perception, result in zip(configs, perceptions, results):
            serial = run_mission(config, perception=CnnPerception(model))
            assert mission_signature(result) == mission_signature(serial)
            assert perception.primed_hits == result.inference_count == 19
            assert perception.fallback_inferences == 0

    def test_mixed_batch_renders_only_its_reader_lane(self, monkeypatch):
        # A CNN lane beside a behavioural one: only the CNN lane's frames
        # are rasterized, and both lanes fly as they would serially.
        model = build_trainable_trailnet(seed=7)
        configs = [_cfg(seed=s, argmax_policy=True) for s in (0, 1)]
        reader = BatchedCnnPerception(model)
        render_lanes = kernels.render_lanes
        lanes_per_call = []

        def counting_render(camera, world, x, y, yaw):
            lanes_per_call.append(len(x))
            return render_lanes(camera, world, x, y, yaw)

        monkeypatch.setattr(kernels, "render_lanes", counting_render)
        cnn, behavioural = run_batch(configs, [reader, None])
        monkeypatch.undo()
        serial_cnn = run_mission(configs[0], perception=CnnPerception(model))
        assert mission_signature(cnn) == mission_signature(serial_cnn)
        assert mission_signature(behavioural) == mission_signature(run_mission(configs[1]))
        # One single-lane render per camera request of the reader lane.
        assert lanes_per_call == [1] * cnn.sync_stats.camera_requests
        assert reader.primed_hits == cnn.inference_count == 19
        assert reader.fallback_inferences == 0

    def test_lane_with_imu_program_matches_serial(self):
        # A lane whose program reads the IMU every loop and steers by the
        # gyro: its packets are served by its own RPC server before the
        # batched advance, exactly as a serial step serves them.
        def imu_program(rt):
            while True:
                imu = yield from rt.request_response(pk.imu_request(), PacketType.IMU_RESP)
                gyro_z = imu.values[3]
                yield from rt.send_packet(pk.target_command(2.0, 0.0, -0.5 * gyro_z, 1.5))
                yield from rt.delay(2_000_000)

        configs = [_cfg(seed=0), _cfg(seed=1)]
        engine = BatchEngine(configs)
        engine.lanes[1].cosim.soc.load_program(imu_program)
        dnn, imu = engine.run()

        serial = CoSimulation(configs[1])
        serial.soc.load_program(imu_program)
        serial_imu = serial.run()
        assert imu.sync_stats.imu_requests > 0
        assert imu.sync_stats.target_commands > 0
        assert mission_signature(imu) == mission_signature(serial_imu)
        assert mission_signature(dnn) == mission_signature(run_mission(configs[0]))

    def test_lanes_make_their_serial_rpc_calls(self, monkeypatch):
        # A CNN lane beside a behavioural one: each lane's RPC server is
        # asked for the same methods, in the same order, as in the lane's
        # serial mission, so no request is served twice or skipped.
        calls = defaultdict(list)
        call = RpcServer.call

        def recording_call(server, method, *args):
            calls[server].append(method)
            return call(server, method, *args)

        monkeypatch.setattr(RpcServer, "call", recording_call)
        model = build_trainable_trailnet(seed=7)
        configs = [_cfg(seed=s, argmax_policy=True) for s in (0, 1)]
        engine = BatchEngine(configs, [BatchedCnnPerception(model), None])
        engine.run()
        serial = [
            CoSimulation(configs[0], perception=CnnPerception(model)),
            CoSimulation(configs[1]),
        ]
        for cosim in serial:
            cosim.run()
        for lane, cosim in zip(engine.lanes, serial):
            methods = calls[lane.cosim.rpc]
            assert methods == calls[cosim.rpc]
            assert {"get_camera_image", "send_velocity_target"} <= set(methods)


class TestCourseStateCache:
    def test_lane_envs_coherent_every_round(self, monkeypatch):
        # A ragged group on a short tunnel: lane 0 reaches the goal, lane
        # 1 stops early at its time limit, lane 2 spawns yawed into a
        # wall.  After every round, each lane env's cached course state
        # must equal a fresh projection of its committed pose.
        base = dict(world="tunnel", world_params={"length": 25.0})
        configs = [
            _cfg(**base, model="resnet14", target_velocity=7.56, max_sim_time=6.0),
            _cfg(**base, model="resnet14", seed=1, max_sim_time=1.0),
            _cfg(**base, target_velocity=9.0, initial_angle_deg=20.0, max_sim_time=3.0),
        ]
        active_sizes = []
        checked = [1] * len(configs)  # trajectory samples goal-tested so far
        reached = [False] * len(configs)
        original = BatchEngine._round

        def checked_round(engine, active):
            original(engine, active)
            active_sizes.append(len(active))
            for lane in engine.lanes:
                env = lane.cosim.env
                world = env.world
                st = env.dynamics.state
                s, d = world.course_coordinates(np.array([st.x, st.y]))
                assert env.course_state() == (s, d, world.heading_error(st.pose))
                assert env.course_progress == min(1.0, s / world.goal_arclength)
                i = lane.index
                for sample in env.trajectory[checked[i]:]:
                    reached[i] = reached[i] or world.reached_goal(
                        np.array([sample.x, sample.y])
                    )
                checked[i] = len(env.trajectory)
                assert env.mission_complete == reached[i]

        monkeypatch.setattr(BatchEngine, "_round", checked_round)
        results = BatchEngine(configs).run()
        assert len(set(active_sizes)) == len(configs)  # ragged: 3, 2, 1 lanes
        assert [r.completed for r in results] == [True, False, False]
        assert results[2].collisions > 0
        serial = [mission_signature(run_mission(c)) for c in configs]
        assert [mission_signature(r) for r in results] == serial


    def test_lane_records_match_env_every_round(self, monkeypatch):
        # The same ragged group: after every round, each stepped lane's
        # CSV row (built from its advance's answer) must equal a fresh
        # read of its env, and a lane must finish on the round its env
        # first reports the goal reached.
        base = dict(world="tunnel", world_params={"length": 25.0})
        configs = [
            _cfg(**base, model="resnet14", target_velocity=7.56, max_sim_time=6.0),
            _cfg(**base, model="resnet14", seed=1, max_sim_time=1.0),
            _cfg(**base, target_velocity=9.0, initial_angle_deg=20.0, max_sim_time=3.0),
        ]
        goal_steps = [[] for _ in configs]
        original = BatchEngine._round

        def checked_round(engine, active):
            original(engine, active)
            for lane in active:
                env = lane.cosim.env
                row = lane.cosim.logger.rows[-1]
                assert row.step == lane.cosim.synchronizer.stats.steps
                st = env.get_state()
                assert (row.x, row.y, row.z, row.yaw, row.speed) == (
                    st.x, st.y, st.z, st.yaw, st.speed
                )
                assert (row.course_s, row.course_d) == env.course_state()[:2]
                assert type(row.collisions) is int
                assert row.collisions == env.collision_count
                if env.mission_complete:
                    goal_steps[lane.index].append(row.step)

        monkeypatch.setattr(BatchEngine, "_round", checked_round)
        results = BatchEngine(configs).run()
        assert [r.completed for r in results] == [True, False, False]
        assert results[2].collisions > 0
        assert goal_steps == [[results[0].sync_stats.steps], [], []]

class TestSweepIntegration:
    def test_batched_sweep_shares_cache_with_serial(self, tmp_path):
        # Cold batched sweep populates the cache; a serial re-run must hit
        # every entry — batching cannot leak into the cache key.
        configs = [_cfg(seed=s) for s in range(3)]
        cold = SweepRunner(
            workers=1, cache=ResultCache(tmp_path), batch_size=4
        ).run(configs)
        assert cold.batched_missions == len(configs)
        assert cold.batch_chunks == 1

        warm = SweepRunner(workers=1, cache=ResultCache(tmp_path)).run(configs)
        assert all(outcome.from_cache for outcome in warm.outcomes)
        assert [mission_signature(r) for r in warm.results()] == [
            mission_signature(r) for r in cold.results()
        ]

    def test_single_lane_chunks_stay_serial(self, tmp_path):
        # A group of one never pays batch-engine setup under the runner.
        report = SweepRunner(
            workers=1, cache=ResultCache(tmp_path), batch_size=8
        ).run([_cfg(seed=0)])
        assert report.batched_missions == 0
        assert report.batch_chunks == 0
        serial = run_mission(_cfg(seed=0))
        assert mission_signature(report.results()[0]) == mission_signature(serial)

    def test_engine_fault_charges_each_lane_one_attempt(self, monkeypatch):
        # A batched-engine fault is not a silent fallback: every lane of
        # the chunk is charged one attempt, then reruns serially.
        def broken_batch(configs):
            raise RuntimeError("lane kernels diverged")

        monkeypatch.setattr("repro.sweep.runner.run_batch", broken_batch)
        configs = [_cfg(seed=s) for s in range(3)]
        report = SweepRunner(workers=1, batch_size=4).run(configs)
        assert report.retries == len(configs)
        assert report.batched_missions == 0
        for outcome in report.outcomes:
            assert outcome.state == "ok" and outcome.attempts == 2
        serial = [mission_signature(run_mission(c)) for c in configs]
        assert [mission_signature(r) for r in report.results()] == serial

    def test_engine_refusal_runs_chunk_serially_uncounted(self, monkeypatch):
        # A chunk the engine refuses mid-run is a fallback, not a fault:
        # it runs serially with no attempt charged, and the report does
        # not count it as batched.
        original = BatchEngine._round
        rounds = []

        def refusing_round(engine, active):
            rounds.append(len(active))
            if len(rounds) == 3:
                raise BatchIneligible("unexpected environment advance of 3 frame(s)")
            original(engine, active)

        monkeypatch.setattr(BatchEngine, "_round", refusing_round)
        configs = [_cfg(seed=s) for s in range(3)]
        report = SweepRunner(workers=1, batch_size=4).run(configs)
        assert len(rounds) == 3
        assert report.batched_missions == 0
        assert report.batch_chunks == 0
        assert report.retries == 0
        assert [outcome.attempts for outcome in report.outcomes] == [1, 1, 1]
        serial = [mission_signature(run_mission(c)) for c in configs]
        assert [mission_signature(r) for r in report.results()] == serial
