"""Tests for Algorithm 1's lockstep synchronizer.

These use a real environment simulator behind the RPC facade and a real
FireSim host with a scripted target program, so packet translation, token
allocation, and boundary-quantized data delivery are all exercised.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.batch import run_batch
from repro.core import packets as pk
from repro.core import synchronizer as synchronizer_module
from repro.core import transport as transport_module
from repro.core.config import CoSimConfig, SyncConfig
from repro.core.cosim import CoSimulation
from repro.core.csvlog import SyncLogger
from repro.core.faults import FaultInjector, FaultPlan
from repro.core.packets import PacketType
from repro.core.synchronizer import Synchronizer
from repro.core.timing import StageTimer
from repro.core.transport import FaultyTransport, transport_pair
from repro.env.camera import encode_image_u8
from repro.env.rpc import RpcServer
from repro.env.simulator import EnvConfig, EnvSimulator
from repro.errors import SyncError, WatchdogError
from repro.soc import firesim as firesim_module
from repro.soc.firesim import FireSimHost
from repro.soc.soc import CONFIG_A, Soc
from repro.sweep import mission_signature
from repro.verify.golden import golden_missions

SYNC = SyncConfig(cycles_per_sync=10_000_000)


def build(program, logger=None, env_config=None):
    env = EnvSimulator(env_config or EnvConfig(world="tunnel", frame_rate=SYNC.frame_rate_hz))
    rpc = RpcServer(env)
    soc = Soc(CONFIG_A)
    soc.load_program(program)
    sync_end, firesim_end = transport_pair("inprocess")
    host = FireSimHost(soc, firesim_end)
    synchronizer = Synchronizer(
        rpc=rpc, transport=sync_end, sync=SYNC, host=host, logger=logger
    )
    return env, soc, synchronizer


def idle_program(rt):
    while True:
        yield from rt.delay(100_000)


class TestLockstep:
    def test_step_requires_configure(self):
        _, _, sync = build(idle_program)
        with pytest.raises(SyncError):
            sync.step()

    def test_both_simulators_advance_one_period(self):
        env, soc, sync = build(idle_program)
        sync.configure()
        sync.step()
        assert soc.cycle == SYNC.cycles_per_sync
        assert env.frame == SYNC.frames_per_sync
        assert sync.sim_time == pytest.approx(SYNC.sync_period_seconds)

    def test_simulation_times_stay_equal(self):
        env, soc, sync = build(idle_program)
        sync.configure()
        for _ in range(5):
            sync.step()
            soc_time = soc.cycle / SYNC.soc_frequency_hz
            assert env.sim_time == pytest.approx(soc_time)
            assert sync.sim_time == pytest.approx(soc_time)

    def test_run_until_max_time(self):
        env, soc, sync = build(idle_program)
        sync.configure()
        sync.run(max_sim_time=0.05)
        assert sync.stats.steps == 5

    def test_shutdown_propagates(self):
        env, soc, sync = build(idle_program)
        sync.configure()
        sync.shutdown()
        # The host was captured in build(); reach it through the synchronizer.
        host = sync.host
        assert host.shutdown_requested


class TestDataTranslation:
    def test_imu_request_answered_next_boundary(self):
        readings = []

        def program(rt):
            response = yield from rt.request_response(
                pk.imu_request(), PacketType.IMU_RESP
            )
            readings.append(response.values)
            while True:
                yield from rt.delay(100_000)

        env, soc, sync = build(program)
        sync.configure()
        sync.step()  # request emitted during this period
        assert not readings
        sync.step()  # response injected at this boundary
        sync.step()  # program reads it
        assert readings
        assert len(readings[0]) == 5
        assert sync.stats.imu_requests == 1

    def test_camera_request_round_trip(self):
        frames = []

        def program(rt):
            response = yield from rt.request_response(
                pk.camera_request(), PacketType.CAMERA_RESP
            )
            frames.append(response)
            while True:
                yield from rt.delay(100_000)

        env, soc, sync = build(program)
        sync.configure()
        for _ in range(4):
            sync.step()
        assert frames
        packet = frames[0]
        height, width = int(packet.values[0]), int(packet.values[1])
        assert len(packet.raw) == height * width
        assert packet.values[5] == pytest.approx(1.6)  # tunnel half-width
        assert sync.stats.camera_requests == 1

    def test_depth_and_state_requests(self):
        results = {}

        def program(rt):
            depth = yield from rt.request_response(pk.depth_request(), PacketType.DEPTH_RESP)
            results["depth"] = depth.values[0]
            state = yield from rt.request_response(pk.state_request(), PacketType.STATE_RESP)
            results["state"] = state.values
            while True:
                yield from rt.delay(100_000)

        env, soc, sync = build(program)
        sync.configure()
        for _ in range(6):
            sync.step()
        assert results["depth"] > 0
        assert len(results["state"]) == 8
        assert sync.stats.depth_requests == 1
        assert sync.stats.state_requests == 1

    def test_target_command_reaches_flight_controller(self):
        def program(rt):
            yield from rt.send_packet(pk.target_command(3.0, 0.1, -0.2, 1.5))
            while True:
                yield from rt.delay(100_000)

        env, soc, sync = build(program)
        sync.configure()
        sync.step()
        sync.step()
        assert env.controller.targets_received == 1
        assert env.controller.target.v_forward == 3.0
        assert sync.stats.target_commands == 1
        assert sync.stats.last_target[0] == 3.0

    def test_request_latency_spans_full_period(self):
        """A mid-period request is never answered within its own period —
        the artificial latency Section 5.5 measures."""
        latencies = []

        def program(rt):
            start = yield from rt.current_cycle()
            response = yield from rt.request_response(
                pk.depth_request(), PacketType.DEPTH_RESP
            )
            end = yield from rt.current_cycle()
            latencies.append(end - start)
            while True:
                yield from rt.delay(100_000)

        env, soc, sync = build(program)
        sync.configure()
        for _ in range(4):
            sync.step()
        assert latencies
        # Response available only at the next boundary.
        assert latencies[0] >= SYNC.cycles_per_sync * 0.9


#: One request of each sensor type, in the order the program sends them.
SENSOR_REQUESTS = (
    pk.imu_request(),
    pk.camera_request(),
    pk.depth_request(),
    pk.lidar_request(),
    pk.state_request(),
)
#: The simulator's reading methods whose answers the responses carry.
READINGS = ("get_imu", "get_camera_image", "get_depth", "get_lidar", "get_state")


def assert_responses_carry_the_readings(monkeypatch):
    """Serve one request of each sensor type to a flying drone and check
    every field of each transmitted response, in ``_PAYLOAD_FORMATS``
    order, against what the simulator returned.

    The readings are recorded by wrapping the simulator's methods, not
    read a second time: the IMU, camera, depth and lidar reads draw
    noise.  The drone flies forward, sideways and turning, so no two of
    the state's velocities are equal."""
    answers = {}

    def record(name):
        method = getattr(EnvSimulator, name)

        def recorded(self, *args):
            answers[name] = answer = method(self, *args)
            return answer

        monkeypatch.setattr(EnvSimulator, name, recorded)

    for name in READINGS:
        record(name)

    def program(rt):
        yield from rt.send_packet(pk.target_command(3.0, 0.6, 0.3, 1.5))
        yield from rt.delay(5 * SYNC.cycles_per_sync)
        for request in SENSOR_REQUESTS:
            yield from rt.send_packet(request)
        while True:
            yield from rt.delay(100_000)

    env, _, sync = build(program)
    sync.configure()
    sync.rpc.call("takeoff")
    while len(sync._pending_rtl) < len(SENSOR_REQUESTS):
        sync.step()
    assert [p.ptype for p in sync._pending_rtl] == [r.ptype for r in SENSOR_REQUESTS]
    sync.dispatch_pending()
    responses = {p.ptype: p for p in sync.host.transport.drain()}
    assert sorted(answers) == sorted(READINGS)

    imu, image = answers["get_imu"], answers["get_camera_image"]
    depth, scan, state = answers["get_depth"], answers["get_lidar"], answers["get_state"]
    assert len({state.u, state.v, state.r}) == 3
    # Nothing has advanced since the requests were served, so the pose's
    # course metadata and the clocks read now are the served ones.
    _s, d, heading_error = env.course_state()
    camera = env.camera.params
    expected = {
        # ax, ay, az, gyro_z, timestamp
        PacketType.IMU_RESP: (
            (imu.accel_x, imu.accel_y, imu.accel_z, imu.gyro_z, imu.timestamp),
            b"",
        ),
        # height, width, timestamp, heading_err, lat_off, half_width + pixels
        PacketType.CAMERA_RESP: (
            (camera.height, camera.width, env.sim_time, heading_error, d,
             env.world.half_width),
            encode_image_u8(image),
        ),
        PacketType.DEPTH_RESP: ((depth,), b""),
        # x, y, z, yaw, u, v, r, timestamp
        PacketType.STATE_RESP: (
            (state.x, state.y, state.z, state.yaw, state.u, state.v, state.r,
             sync.sim_time),
            b"",
        ),
        # beam count, fov_rad, timestamp + float32 ranges
        PacketType.LIDAR_RESP: (
            (scan.beams, scan.fov_rad, scan.timestamp),
            scan.ranges.astype("<f4").tobytes(),
        ),
    }
    assert sorted(responses) == sorted(expected)
    for ptype, (values, raw) in expected.items():
        packet = responses[ptype]
        assert len(packet.values) == pk._PAYLOAD_SIZES[ptype][1], ptype.name
        assert [repr(v) for v in packet.values] == [repr(v) for v in values], ptype.name
        assert packet.raw == raw, ptype.name


def test_sensor_responses_carry_the_simulator_readings(monkeypatch):
    assert_responses_carry_the_readings(monkeypatch)


class TestLogging:
    def test_logger_rows_per_step(self):
        logger = SyncLogger()
        env, soc, sync = build(idle_program, logger=logger)
        sync.configure()
        for _ in range(3):
            sync.step()
        assert len(logger) == 3
        row = logger.rows[-1]
        assert row.step == 3
        assert row.sim_time == pytest.approx(3 * SYNC.sync_period_seconds)


class RecordingServer:
    """An RPC server stand-in that records every method it is asked for."""

    def __init__(self, server):
        self.server = server
        self.methods = []

    def call(self, method, *args):
        self.methods.append(method)
        return self.server.call(method, *args)


class TestRpcBudget:
    """A logged lockstep step crosses the environment RPC boundary once,
    plus once per sensor request or command the SoC issued."""

    @staticmethod
    def build_recorded(program):
        env, _, sync = build(program, logger=SyncLogger())
        recorder = sync.rpc = RecordingServer(RpcServer(env))
        sync.configure()
        return recorder, sync

    def test_idle_steps_make_one_rpc_each(self):
        recorder, sync = self.build_recorded(idle_program)
        for _ in range(5):
            sync.step()
        assert len(sync.logger) == 5
        assert recorder.methods == ["continue_for_frames"] * 5

    def test_imu_request_adds_exactly_one_rpc(self):
        def program(rt):
            yield from rt.request_response(pk.imu_request(), PacketType.IMU_RESP)
            while True:
                yield from rt.delay(100_000)

        recorder, sync = self.build_recorded(program)
        for _ in range(4):
            before_calls = len(recorder.methods)
            before_imu = sync.stats.imu_requests
            sync.step()
            dispatched = sync.stats.imu_requests - before_imu
            assert recorder.methods[before_calls:] == (
                ["get_imu"] * dispatched + ["continue_for_frames"]
            )
        assert sync.stats.imu_requests == 1

    @staticmethod
    def imu_loop(rt):
        while True:
            yield from rt.request_response(pk.imu_request(), PacketType.IMU_RESP)

    def test_step_after_dispatch_pending_serves_nothing_again(self):
        # The batched engine dispatches a step's packets before its
        # advance; the step's own dispatch must then find nothing left.
        recorder, sync = self.build_recorded(self.imu_loop)
        sync.step()  # the first request is emitted during this period
        for _ in range(4):
            before = len(recorder.methods)
            sync.dispatch_pending()
            assert recorder.methods[before:] == ["get_imu"]
            before = len(recorder.methods)
            sync.step()
            assert recorder.methods[before:] == ["continue_for_frames"]
        assert sync.stats.imu_requests == 4

    def test_dispatch_outside_step_is_charged_to_env_step(self):
        _recorder, sync = self.build_recorded(self.imu_loop)
        sync.stage_timer = timer = StageTimer()
        sync.step()
        before = timer.get("env_step")
        sync.dispatch_pending()
        assert sync.stats.imu_requests == 1
        assert timer.get("env_step") > before
        # The batched engine dispatches outside step() for every lane.
        (result,) = run_batch([CoSimConfig(world="tunnel", max_sim_time=1.0)])
        assert result.sync_stats.camera_requests > 0
        assert result.stage_timings["env_step"] > 0.0

    @staticmethod
    def fly_recorded(config):
        """Fly ``config`` with its RPC calls recorded."""
        cosim = CoSimulation(config)
        recorder = cosim.rpc = cosim.synchronizer.rpc = RecordingServer(cosim.rpc)
        return cosim, cosim.run(), recorder

    def test_mission_rpc_count(self):
        _, result, recorder = self.fly_recorded(CoSimConfig(world="tunnel", max_sim_time=1.0))
        stats = result.sync_stats
        assert stats.camera_requests > 0 and stats.target_commands > 0
        # One advance per step, one RPC per camera request and target
        # command, and the takeoff.
        assert len(recorder.methods) == (
            stats.steps + stats.camera_requests + stats.target_commands + 1
        )

    def test_missions_call_every_method(self):
        # The server registers the calls the program makes and no other:
        # one short mission per controller that issues a distinct request
        # calls every registered method between them.
        called = set()
        for fields in (
            {"controller": "dnn"},
            {"dynamic_runtime": True},
            {"controller": "fusion"},
            {"controller": "mpc"},
            {"controller": "slam"},
        ):
            config = CoSimConfig(world="tunnel", max_sim_time=1.0, **fields)
            cosim, _, recorder = self.fly_recorded(config)
            called.update(recorder.methods)
        assert called == set(cosim.rpc.server.methods)


def fly_checking_records(config, monkeypatch):
    """Run ``config``, checking after every step that the CSV row equals a
    fresh read of the environment.  Returns the result and the steps
    after which the environment reported the goal reached."""
    cosim = CoSimulation(config)
    env, sync = cosim.env, cosim.synchronizer
    goal_steps = []
    step = sync.step

    def checked_step():
        step()
        row = cosim.logger.rows[-1]
        st = env.get_state()
        assert (row.x, row.y, row.z, row.yaw, row.speed) == (
            st.x, st.y, st.z, st.yaw, st.speed
        )
        assert (row.course_s, row.course_d) == env.course_state()[:2]
        assert type(row.collisions) is int
        assert row.collisions == env.collision_count
        if env.mission_complete:
            goal_steps.append(row.step)

    monkeypatch.setattr(sync, "step", checked_step)
    result = cosim.run()
    assert len(cosim.logger) == result.sync_stats.steps
    return result, goal_steps


class TestStepRecord:
    """The advance's answer is the environment's state, and the mission
    stops on the first step whose advance reached the goal."""

    def test_s_shape_mission_with_wall_collisions(self, monkeypatch):
        config = CoSimConfig(
            world="s-shape", model="resnet6", target_velocity=9.0,
            max_sim_time=8.0, seed=3,
        )
        result, goal_steps = fly_checking_records(config, monkeypatch)
        assert result.collisions > 0
        assert not result.completed and goal_steps == []

    def test_faulty_link_with_drops_and_re_requests(self, monkeypatch):
        config = golden_missions()["tunnel-dnn-faulty-drop"]
        result, goal_steps = fly_checking_records(config, monkeypatch)
        assert result.sync_stats.packets_dropped > 0
        assert result.app_stats.sensor_retries > 0
        assert not result.completed and goal_steps == []

    def test_goal_reaching_tunnel_mission(self, monkeypatch):
        config = CoSimConfig(
            world="tunnel", model="resnet14", target_velocity=9.0,
            max_sim_time=8.0, seed=1,
        )
        result, goal_steps = fly_checking_records(config, monkeypatch)
        assert result.completed
        assert goal_steps == [result.sync_stats.steps]


#: The obs series that count the step exchange's frames and tokens.
EXCHANGE_SERIES = (
    "rose_link_bytes_total",
    "rose_link_packets_total",
    "rose_sync_grants_total",
    "rose_sync_done_total",
    "rose_bridge_steps_granted_total",
)


def spy_on_sync_frames(monkeypatch):
    """Record the type of every SYNC_GRANT/SYNC_DONE packet or frame built:
    by the two constructors the exchange uses, or by the link's codec."""
    built = []

    def record(fn):
        def spy(*args):
            packet = fn(*args)
            built.append(packet.ptype)
            return packet

        return spy

    def record_codec(fn):
        def spy(packet):
            if packet.ptype in (PacketType.SYNC_GRANT, PacketType.SYNC_DONE):
                built.append(packet.ptype)
            return fn(packet)

        return spy

    monkeypatch.setattr(
        synchronizer_module, "sync_grant", record(synchronizer_module.sync_grant)
    )
    monkeypatch.setattr(firesim_module, "sync_done", record(firesim_module.sync_done))
    for name in ("encode_packet", "encode_payload"):
        monkeypatch.setattr(
            transport_module, name, record_codec(getattr(transport_module, name))
        )
    return built


def fly(config):
    """Run one mission; returns its result and the two link endpoints."""
    cosim = CoSimulation(config)
    try:
        result = cosim.run()
    finally:
        cosim.synchronizer.transport.close()
        cosim.host.transport.close()
    return result, cosim.synchronizer.transport, cosim.host.transport


class TestGrantDelivery:
    """On a lossless in-process link the synchronizer grants its
    in-process host by call; the frames it does not build are still
    counted, so every output equals the framed exchange's."""

    CONFIG = CoSimConfig(world="tunnel", model="resnet6", max_sim_time=1.0)

    def test_lossless_link_builds_no_sync_frame(self, monkeypatch):
        built = spy_on_sync_frames(monkeypatch)
        result, _, _ = fly(self.CONFIG)
        stats = result.sync_stats
        assert stats.steps > 0
        assert built == []
        grants = result.obs.metrics["rose_sync_grants_total"]["series"]
        assert [row["value"] for row in grants] == [stats.steps]

    def test_framed_links_count_what_the_direct_link_counts(self, monkeypatch):
        built = spy_on_sync_frames(monkeypatch)
        runs = {
            "direct": fly(self.CONFIG),
            "empty-plan": fly(dataclasses.replace(self.CONFIG, faults=FaultPlan())),
            "tcp": fly(dataclasses.replace(self.CONFIG, transport="tcp")),
        }
        steps = runs["direct"][0].sync_stats.steps
        # Only the two framed links built frames: a done per step each.
        assert built.count(PacketType.SYNC_DONE) >= 2 * steps
        signatures = {name: mission_signature(run[0]) for name, run in runs.items()}
        assert len(set(signatures.values())) == 1, signatures

        def counters(end):
            return end.bytes_sent, end.bytes_received, end.packets_sent

        direct, direct_sync, direct_host = runs["direct"]
        for name, (result, sync_end, host_end) in runs.items():
            for series in EXCHANGE_SERIES:
                got, want = result.obs.metrics[series], direct.obs.metrics[series]
                assert got == want, (name, series)
            assert counters(sync_end) == counters(direct_sync), name
            assert counters(host_end) == counters(direct_host), name

    def test_invariants_pair_every_direct_grant(self):
        cosim = CoSimulation(dataclasses.replace(self.CONFIG, check_invariants=True))
        steps = cosim.run().sync_stats.steps
        report = cosim.invariants.report
        assert steps > 0
        assert report.grants_seen == report.dones_seen == report.steps_checked == steps
        assert report.stale_dones_seen == 0

    def test_unanswered_direct_grant_is_a_sync_error(self):
        _, soc, sync = build(idle_program)
        sync.configure()
        sync.step()
        sync.host.grant = lambda step_index: None  # the grant never lands
        with pytest.raises(SyncError, match="did not complete step 1") as raised:
            sync.step()
        assert not isinstance(raised.value, WatchdogError)
        assert soc.cycle == SYNC.cycles_per_sync

    def test_faulty_link_with_empty_plan_keeps_the_framed_exchange(self, monkeypatch):
        built = spy_on_sync_frames(monkeypatch)
        readings = []

        def program(rt):
            response = yield from rt.request_response(
                pk.imu_request(), PacketType.IMU_RESP
            )
            readings.append(response.values)
            while True:
                yield from rt.delay(100_000)

        env = EnvSimulator(EnvConfig(world="tunnel", frame_rate=SYNC.frame_rate_hz))
        soc = Soc(CONFIG_A)
        soc.load_program(program)
        injector = FaultInjector(FaultPlan())
        sync_end, firesim_end = (
            FaultyTransport(end, injector) for end in transport_pair("inprocess")
        )
        host = FireSimHost(soc, firesim_end)
        sync = Synchronizer(
            rpc=RpcServer(env),
            transport=sync_end,
            sync=SYNC,
            host=host,
            faults=injector,
        )
        sync.configure()
        sync.step()  # request emitted during this period
        assert not readings
        sync.step()  # response injected at this boundary
        sync.step()  # program reads it
        assert len(readings) == 1 and len(readings[0]) == 5
        assert sync.stats.imu_requests == 1
        # Every step crossed the link as a SYNC_GRANT and a SYNC_DONE frame.
        assert built.count(PacketType.SYNC_DONE) >= 3
        assert built.count(PacketType.SYNC_GRANT) >= 3
