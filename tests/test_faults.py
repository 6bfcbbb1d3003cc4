"""Tests for fault injection and the resilience paths it exercises.

Covers the :mod:`repro.core.faults` plan/injector machinery, wire-level
injection through :class:`~repro.core.transport.FaultyTransport`, CRC
discard semantics on both transports, the synchronizer's watchdog /
regrant recovery and its error paths, and the end-to-end degradation
behaviour of a faulted mission (structured failure, determinism,
fault-free bit-identity).
"""

from __future__ import annotations

import socket as socket_module

import pytest

from repro.core import packets as pk
from repro.core.config import CoSimConfig, SyncConfig
from repro.core.cosim import CoSimulation, run_mission
from repro.core.csvlog import SyncLogger
from repro.core.faults import (
    SENSOR_RESPONSE_TYPES,
    FaultInjector,
    FaultPlan,
    FaultRule,
    ScheduledFault,
    load_fault_plan,
)
from repro.core.packets import PacketType
from repro.core.synchronizer import Synchronizer
from repro.core.transport import FaultyTransport, transport_pair
from repro.env.rpc import RpcClient, RpcServer
from repro.env.simulator import EnvConfig, EnvSimulator
from repro.errors import ConfigError, PacketError, SyncError, TransportError, WatchdogError
from repro.soc.firesim import FireSimHost
from repro.soc.soc import CONFIG_A, Soc


def injector(*rules, scheduled=(), seed=0):
    return FaultInjector(FaultPlan(seed=seed, rules=tuple(rules), scheduled=tuple(scheduled)))


# ---------------------------------------------------------------------------
# FaultPlan: validation + serialization
# ---------------------------------------------------------------------------
class TestFaultPlan:
    def test_round_trips_through_json(self):
        plan = FaultPlan(
            seed=11,
            rules=(
                FaultRule(PacketType.CAMERA_RESP, drop=0.1, delay=0.05, delay_steps=2),
                FaultRule(PacketType.IMU_RESP, corrupt=0.2, duplicate=0.01),
            ),
            scheduled=(
                ScheduledFault("drop", 40, 60, PacketType.CAMERA_RESP),
                ScheduledFault("stuck_imu", 10, 20),
            ),
        )
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_dict_rules_are_coerced(self):
        plan = FaultPlan(rules=({"ptype": "CAMERA_RESP", "drop": 0.5},))
        assert plan.rules[0].ptype is PacketType.CAMERA_RESP
        assert plan.rules[0].drop == 0.5

    def test_sensor_response_drop_covers_all_sensor_types(self):
        plan = FaultPlan.sensor_response_drop(0.1, seed=3)
        assert {r.ptype for r in plan.rules} == set(SENSOR_RESPONSE_TYPES)
        assert all(r.drop == 0.1 for r in plan.rules)
        assert plan.seed == 3

    def test_duplicate_rule_rejected(self):
        with pytest.raises(ConfigError):
            FaultPlan(rules=(FaultRule(PacketType.IMU_RESP), FaultRule(PacketType.IMU_RESP)))

    def test_probability_bounds_enforced(self):
        with pytest.raises(ConfigError):
            FaultRule(PacketType.IMU_RESP, drop=1.5)
        with pytest.raises(ConfigError):
            FaultRule(PacketType.IMU_RESP, delay=0.1, delay_steps=0)

    def test_scheduled_fault_validation(self):
        with pytest.raises(ConfigError):
            ScheduledFault("melt", 0, 10)
        with pytest.raises(ConfigError):
            ScheduledFault("drop", 10, 10, PacketType.IMU_RESP)  # empty window
        with pytest.raises(ConfigError):
            ScheduledFault("drop", 0, 10)  # wire kind needs a ptype

    def test_unknown_fields_rejected(self):
        with pytest.raises(ConfigError):
            FaultPlan.from_dict({"seed": 0, "chaos": True})

    def test_load_fault_plan_inline_and_file(self, tmp_path):
        text = FaultPlan.sensor_response_drop(0.25, seed=9).to_json()
        assert load_fault_plan(text).rules[0].drop == 0.25
        path = tmp_path / "plan.json"
        path.write_text(text)
        assert load_fault_plan(str(path)).seed == 9
        with pytest.raises(ConfigError):
            load_fault_plan(str(tmp_path / "missing.json"))


# ---------------------------------------------------------------------------
# FaultInjector: decisions, schedule windows, determinism
# ---------------------------------------------------------------------------
class TestFaultInjector:
    def test_no_rules_never_faults_or_consumes_rng(self):
        inj = injector()
        state = inj._rng.getstate()
        for _ in range(100):
            decision = inj.decide(PacketType.CAMERA_RESP)
            assert not (decision.drop or decision.corrupt or decision.duplicate)
        assert inj._rng.getstate() == state

    def test_same_seed_same_decisions(self):
        rule = FaultRule(PacketType.IMU_RESP, drop=0.3, corrupt=0.2, duplicate=0.1)
        a, b = injector(rule, seed=42), injector(rule, seed=42)
        for _ in range(200):
            assert a.decide(PacketType.IMU_RESP) == b.decide(PacketType.IMU_RESP)
        assert a.injected == b.injected

    def test_certain_drop(self):
        inj = injector(FaultRule(PacketType.DEPTH_RESP, drop=1.0))
        assert inj.decide(PacketType.DEPTH_RESP).drop
        assert not inj.decide(PacketType.CAMERA_RESP).drop  # other types untouched
        assert inj.injected == {("drop", PacketType.DEPTH_RESP): 1}

    def test_scheduled_drop_window(self):
        inj = injector(
            scheduled=(ScheduledFault("drop", 40, 60, PacketType.CAMERA_RESP),)
        )
        inj.begin_step(39)
        assert not inj.decide(PacketType.CAMERA_RESP).drop
        inj.begin_step(40)
        assert inj.decide(PacketType.CAMERA_RESP).drop
        assert not inj.decide(PacketType.IMU_RESP).drop  # window is per-type
        inj.begin_step(60)  # end is exclusive
        assert not inj.decide(PacketType.CAMERA_RESP).drop

    def test_sensor_fault_windows(self):
        inj = injector(
            scheduled=(
                ScheduledFault("stuck_imu", 5, 10),
                ScheduledFault("camera_blackout", 8, 12),
            )
        )
        inj.begin_step(6)
        assert inj.stuck_imu_active() and not inj.camera_blackout_active()
        inj.begin_step(9)
        assert inj.stuck_imu_active() and inj.camera_blackout_active()
        inj.begin_step(11)
        assert not inj.stuck_imu_active() and inj.camera_blackout_active()

    def test_corrupt_wire_preserves_framing(self):
        inj = injector(seed=1)
        wire = pk.encode_packet(pk.depth_response(4.5))
        for _ in range(50):
            mutated = inj.corrupt_wire(wire)
            assert len(mutated) == len(wire)
            assert mutated[: pk.HEADER_SIZE] == wire[: pk.HEADER_SIZE]
            assert mutated != wire
            with pytest.raises(PacketError):
                pk.decode_packet(mutated)


# ---------------------------------------------------------------------------
# CRC validation on the wire format
# ---------------------------------------------------------------------------
class TestPacketCrc:
    def test_flipped_payload_byte_detected(self):
        wire = bytearray(pk.encode_packet(pk.depth_response(4.5)))
        wire[pk.HEADER_SIZE] ^= 0x40
        with pytest.raises(PacketError):
            pk.decode_packet(bytes(wire))

    def test_flipped_crc_byte_detected(self):
        wire = bytearray(pk.encode_packet(pk.sync_grant(3)))
        wire[3] ^= 0x01
        with pytest.raises(PacketError):
            pk.decode_packet(bytes(wire))


# ---------------------------------------------------------------------------
# Transports: corrupt-discard, closed-endpoint symmetry, send timeout
# ---------------------------------------------------------------------------
class TestTransportRobustness:
    @pytest.fixture(params=["inprocess", "tcp"])
    def pair(self, request):
        a, b = transport_pair(request.param)
        yield a, b
        a.close()
        b.close()

    def test_corrupt_frame_discarded_and_counted(self, pair):
        a, b = pair
        wire = bytearray(pk.encode_packet(pk.depth_response(1.0)))
        wire[pk.HEADER_SIZE] ^= 0xFF
        a.send_wire(bytes(wire))
        a.send(pk.depth_response(2.0))  # a healthy frame right behind it
        packet = b.recv_blocking(timeout=2.0)
        assert packet.values == (2.0,)
        assert b.corrupt_packets == 1

    def test_recv_on_closed_raises(self, pair):
        _, b = pair
        b.close()
        with pytest.raises(TransportError):
            b.recv()

    def test_send_on_closed_raises(self, pair):
        a, _ = pair
        a.close()
        with pytest.raises(TransportError):
            a.send(pk.depth_request())

    def test_tcp_resyncs_after_corrupted_header(self):
        a, b = transport_pair("tcp")
        try:
            wire = bytearray(pk.encode_packet(pk.depth_response(1.0)))
            wire[0] ^= 0xFF  # destroy the magic: header-level corruption
            a.send_wire(bytes(wire))
            a.send(pk.depth_response(3.0))
            packet = b.recv_blocking(timeout=2.0)
            assert packet.values == (3.0,)
            assert b.corrupt_packets >= 1
        finally:
            a.close()
            b.close()

    def test_tcp_send_timeout_raises_not_spins(self):
        a, b = transport_pair("tcp")
        try:
            a.send_timeout = 0.2
            a._sock.setsockopt(socket_module.SOL_SOCKET, socket_module.SO_SNDBUF, 4096)
            payload = bytes(256 * 1024)
            with pytest.raises(TransportError, match="stalled"):
                for _ in range(64):  # peer never reads; buffers fill quickly
                    a.send(pk.camera_response(512, 512, 0.0, 0.0, 0.0, 1.6, payload))
        finally:
            a.close()
            b.close()

    def test_tcp_pair_accept_failure_closes_client(self, monkeypatch):
        created = []
        real_create = socket_module.create_connection

        def tracking_create(*args, **kwargs):
            sock = real_create(*args, **kwargs)
            created.append(sock)
            return sock

        def failing_accept(self):
            raise OSError("synthetic accept failure")

        monkeypatch.setattr(socket_module, "create_connection", tracking_create)
        monkeypatch.setattr(socket_module.socket, "accept", failing_accept)
        with pytest.raises(TransportError):
            transport_pair("tcp")
        assert created and created[0].fileno() == -1  # client socket closed


# ---------------------------------------------------------------------------
# FaultyTransport wire-level injection
# ---------------------------------------------------------------------------
class TestFaultyTransport:
    def wrap(self, inj):
        a, b = transport_pair("inprocess")
        return FaultyTransport(a, inj), b

    def test_drop(self):
        inj = injector(FaultRule(PacketType.DEPTH_RESP, drop=1.0))
        a, b = self.wrap(inj)
        a.send(pk.depth_response(1.0))
        assert b.recv() is None
        assert inj.total("drop") == 1
        assert a.packets_sent == 0  # never reached the wire

    def test_corrupt_discarded_by_receiver(self):
        inj = injector(FaultRule(PacketType.DEPTH_RESP, corrupt=1.0))
        a, b = self.wrap(inj)
        a.send(pk.depth_response(1.0))
        assert b.recv() is None
        assert b.corrupt_packets == 1
        assert inj.total("corrupt") == 1

    def test_duplicate(self):
        inj = injector(FaultRule(PacketType.DEPTH_RESP, duplicate=1.0))
        a, b = self.wrap(inj)
        a.send(pk.depth_response(1.0))
        assert len(b.drain()) == 2
        assert inj.total("duplicate") == 1

    def test_delay_released_after_steps(self):
        inj = injector(FaultRule(PacketType.DEPTH_RESP, delay=1.0, delay_steps=2))
        a, b = self.wrap(inj)
        a.send(pk.depth_response(1.0))
        assert b.recv() is None
        assert a.pending_delayed == 1
        inj.begin_step(1)
        a.recv()  # release check runs on any transport activity
        assert b.recv() is None  # one step is not enough
        inj.begin_step(2)
        a.recv()
        packet = b.recv()
        assert packet is not None and packet.values == (1.0,)
        assert a.pending_delayed == 0
        assert inj.total("delay") == 1

    def test_unfaulted_types_pass_through(self):
        inj = injector(FaultRule(PacketType.DEPTH_RESP, drop=1.0))
        a, b = self.wrap(inj)
        a.send(pk.sync_grant(5))
        assert b.recv().values == (5,)


# ---------------------------------------------------------------------------
# Synchronizer: error paths, watchdog, sensor faults
# ---------------------------------------------------------------------------
SYNC = SyncConfig(cycles_per_sync=10_000_000)


def build_sync(program, faults=None, logger=None, sync=SYNC):
    env = EnvSimulator(EnvConfig(world="tunnel", frame_rate=sync.frame_rate_hz))
    rpc = RpcClient(RpcServer(env))
    soc = Soc(CONFIG_A)
    soc.load_program(program)
    sync_end, firesim_end = transport_pair("inprocess")
    if faults is not None:
        sync_end = FaultyTransport(sync_end, faults)
        firesim_end = FaultyTransport(firesim_end, faults)
    host = FireSimHost(soc, firesim_end)
    synchronizer = Synchronizer(
        rpc=rpc,
        transport=sync_end,
        sync=sync,
        host=host,
        logger=logger,
        faults=faults,
    )
    return soc, host, synchronizer


def idle_program(rt):
    while True:
        yield from rt.delay(100_000)


class TestSynchronizerErrorPaths:
    def test_step_before_configure(self):
        _, _, sync = build_sync(idle_program)
        with pytest.raises(SyncError):
            sync.step()

    def test_out_of_order_sync_done(self):
        _, _, sync = build_sync(idle_program)
        sync.configure()
        sync.transport._inbox.append(pk.encode_packet(pk.sync_done(7, 1)))
        with pytest.raises(SyncError, match="out-of-order"):
            sync.step()

    def test_stale_sync_done_ignored(self):
        _, _, sync = build_sync(idle_program)
        sync.configure()
        sync.step()
        # A duplicate acknowledgement of step 0 arrives late: absorbed.
        sync.transport._inbox.append(pk.encode_packet(pk.sync_done(0, 1)))
        sync.step()
        assert sync.stats.stale_sync_done == 1
        assert sync.stats.steps == 2

    def test_unexpected_packet_type_rejected(self):
        _, _, sync = build_sync(idle_program)
        sync.configure()
        sync.transport._inbox.append(pk.encode_packet(pk.sync_grant(0)))
        with pytest.raises(SyncError, match="unexpected"):
            sync.step()


class TestWatchdog:
    def test_all_done_lost_raises_watchdog(self):
        inj = injector(FaultRule(PacketType.SYNC_DONE, drop=1.0))
        _, _, sync = build_sync(idle_program, faults=inj)
        sync.configure()
        with pytest.raises(WatchdogError):
            sync.step()
        assert sync.stats.sync_regrants == SYNC.max_regrants

    def test_lossy_done_recovered_without_double_stepping(self):
        inj = injector(FaultRule(PacketType.SYNC_DONE, drop=0.5), seed=5)
        soc, host, sync = build_sync(idle_program, faults=inj)
        sync.configure()
        for _ in range(20):
            sync.step()
        assert sync.stats.steps == 20
        assert soc.cycle == 20 * SYNC.cycles_per_sync  # every step ran once
        assert sync.stats.sync_regrants > 0
        assert host.duplicate_grants > 0

    def test_fault_counters_mirrored_into_stats(self):
        # The injector counts each fault; collecting the mission copies its
        # totals into the stats once, the shutdown frame's drop included.
        plan = FaultPlan(
            seed=5,
            rules=(
                FaultRule(PacketType.SYNC_DONE, drop=0.5),
                FaultRule(PacketType.SYNC_SHUTDOWN, drop=1.0),
            ),
        )
        sim = CoSimulation(small_config(faults=plan))
        stats = sim.run().sync_stats
        inj = sim.fault_injector
        assert inj.injected[("drop", PacketType.SYNC_SHUTDOWN)] == 1
        assert stats.packets_dropped == inj.total("drop") > 1
        assert stats.fault_summary()["packets_dropped"] == stats.packets_dropped


class TestSensorFaults:
    def test_stuck_imu_serves_last_reading(self):
        readings = []

        def program(rt):
            for _ in range(2):
                imu = yield from rt.request_response(pk.imu_request(), PacketType.IMU_RESP)
                readings.append(imu.values)
                yield from rt.delay(1_000_000)
            while True:
                yield from rt.delay(100_000)

        inj = injector(scheduled=(ScheduledFault("stuck_imu", 0, 1000),))
        _, _, sync = build_sync(program, faults=inj)
        sync.configure()
        for _ in range(10):
            sync.step()
        assert len(readings) == 2
        assert readings[0] == readings[1]  # timestamp frozen: stuck sensor
        assert sync.stats.sensor_faults >= 1

    def test_camera_blackout_zeroes_frame(self):
        frames = []

        def program(rt):
            frame = yield from rt.request_response(pk.camera_request(), PacketType.CAMERA_RESP)
            frames.append(frame)
            while True:
                yield from rt.delay(100_000)

        inj = injector(scheduled=(ScheduledFault("camera_blackout", 0, 1000),))
        _, _, sync = build_sync(program, faults=inj)
        sync.configure()
        for _ in range(4):
            sync.step()
        assert frames
        assert set(frames[0].raw) == {0}  # all-black pixels
        assert frames[0].values[3] == 0.0  # heading_error metadata gone too
        assert sync.stats.sensor_faults >= 1


# ---------------------------------------------------------------------------
# CSV log: new columns round-trip, old logs still read
# ---------------------------------------------------------------------------
class TestCsvColumns:
    def test_fault_columns_logged(self):
        logger = SyncLogger()
        inj = injector(FaultRule(PacketType.SYNC_DONE, drop=0.5), seed=5)
        _, _, sync = build_sync(idle_program, faults=inj, logger=logger)
        sync.configure()
        for _ in range(10):
            sync.step()
        assert logger.rows[-1].packets_dropped == inj.total("drop") > 0
        assert logger.rows[-1].retries == sync.stats.sync_regrants

    def test_pre_fault_csv_still_reads(self, tmp_path):
        old = tmp_path / "old.csv"
        header = (
            "step,sim_time,x,y,z,yaw,speed,course_s,course_d,collisions,"
            "camera_requests,imu_requests,depth_requests,"
            "target_v_forward,target_v_lateral,target_yaw_rate"
        )
        old.write_text(header + "\n1,0.01,0,0,1.5,0,0,0,0,0,1,0,0,3.0,0.0,0.0\n")
        logger = SyncLogger.read(str(old))
        assert logger.rows[0].packets_dropped == 0
        assert logger.rows[0].retries == 0


# ---------------------------------------------------------------------------
# End to end: degradation, structured failure, determinism
# ---------------------------------------------------------------------------
def small_config(**kwargs):
    return CoSimConfig(
        world="tunnel", soc="A", model="resnet6", target_velocity=3.0,
        max_sim_time=2.0, **kwargs
    )


class TestMissionUnderFaults:
    def test_sensor_drops_degrade_gracefully(self):
        plan = FaultPlan(
            seed=3, rules=(FaultRule(PacketType.CAMERA_RESP, drop=0.5),)
        )
        result = run_mission(small_config(faults=plan, sensor_retries=1))
        assert result.failure_reason is None  # no crash: flown to max_sim_time
        stats = result.app_stats
        assert stats.sensor_timeouts > 0
        # Every expired wait either triggered a retry or fell through to a
        # degradation action (stale frame / blind restart).
        assert stats.sensor_timeouts >= stats.sensor_retries
        assert stats.sensor_retries + stats.stale_frames_reused > 0
        assert result.sync_stats.packets_dropped > 0

    def test_dead_link_is_structured_watchdog_failure(self):
        plan = FaultPlan(rules=(FaultRule(PacketType.SYNC_DONE, drop=1.0),))
        result = run_mission(small_config(faults=plan))
        assert not result.completed
        assert result.failure_reason == "watchdog"
        assert "watchdog" in result.summary()

    def test_same_plan_same_seed_identical_counters(self):
        plan = FaultPlan.sensor_response_drop(0.2, seed=13)
        a = run_mission(small_config(faults=plan))
        b = run_mission(small_config(faults=plan))
        assert a.sync_stats.fault_summary() == b.sync_stats.fault_summary()
        assert a.app_stats.sensor_timeouts == b.app_stats.sensor_timeouts

    def test_fusion_controller_degrades(self):
        plan = FaultPlan(
            seed=2,
            rules=(
                FaultRule(PacketType.IMU_RESP, drop=0.4),
                FaultRule(PacketType.CAMERA_RESP, drop=0.4),
            ),
        )
        result = run_mission(
            small_config(faults=plan, controller="fusion", sensor_retries=0)
        )
        assert result.failure_reason is None
        assert result.fusion_stats.imu_timeouts > 0
