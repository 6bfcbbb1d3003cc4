"""Tests for the multitasking SoC scheduler, demux, and background apps."""

from __future__ import annotations

import pytest

from repro import CoSimConfig, run_mission
from repro.core import packets as pk
from repro.core.packets import PacketType
from repro.errors import ConfigError
from repro.soc.demux import IoDemux
from repro.soc.iodev import REG_RX_COUNT, REG_RX_DATA
from repro.soc.soc import CONFIG_A, Soc


class TestScheduler:
    def test_duplicate_task_name_rejected(self):
        soc = Soc(CONFIG_A)
        soc.load_program(lambda rt: iter(()), name="a")
        with pytest.raises(ConfigError):
            soc.add_program(lambda rt: iter(()), name="a")

    def test_task_lookup(self):
        soc = Soc(CONFIG_A)
        soc.load_program(lambda rt: iter(()), name="a")
        assert soc.task("a").name == "a"
        with pytest.raises(ConfigError):
            soc.task("ghost")

    def test_load_program_replaces_tasks(self):
        soc = Soc(CONFIG_A)
        soc.load_program(lambda rt: iter(()), name="a")
        soc.add_program(lambda rt: iter(()), name="b")
        soc.load_program(lambda rt: iter(()), name="c")
        assert [t.name for t in soc.tasks] == ["c"]

    def test_sleeping_tasks_overlap(self):
        """Two tasks that mostly sleep interleave without serializing."""
        log = []

        def make(tag):
            def program(rt):
                for i in range(3):
                    yield from rt.compute(100)
                    log.append((tag, i))
                    yield from rt.delay(10_000)

            return program

        soc = Soc(CONFIG_A)
        soc.load_program(make("a"), name="a")
        soc.add_program(make("b"), name="b")
        soc.step(100_000)
        # Both tasks completed all iterations, interleaved.
        assert log.count(("a", 0)) == 1
        assert sorted(t for t, _ in log) == ["a"] * 3 + ["b"] * 3
        assert log[0][0] != log[1][0]  # round-robin interleaving

    def test_core_ops_serialize(self):
        """Two CPU-heavy tasks take twice the wall cycles of one."""

        def hog(rt):
            yield from rt.compute(1_000_000)

        solo = Soc(CONFIG_A)
        solo.load_program(hog, name="a")
        solo.step(3_000_000)
        assert solo.task("a").halted

        duo = Soc(CONFIG_A)
        duo.load_program(hog, name="a")
        duo.add_program(hog, name="b")
        duo.step(1_500_000)
        # After 1.5M cycles only ~1.5M cycles of the 2M total ran.
        assert duo.counters.cpu_busy_cycles == 1_500_000
        assert not (duo.task("a").halted and duo.task("b").halted)
        duo.step(600_000)
        assert duo.task("a").halted and duo.task("b").halted

    def test_contention_delays_neighbour(self):
        """A long op blocks the other task's short op (queueing delay)."""
        finish = {}

        def long_task(rt):
            yield from rt.compute(1_000_000)
            finish["long"] = yield from rt.current_cycle()

        def short_task(rt):
            yield from rt.delay(10)  # arrive just after the long op starts
            yield from rt.compute(100)
            finish["short"] = yield from rt.current_cycle()

        soc = Soc(CONFIG_A)
        soc.load_program(long_task, name="long")
        soc.add_program(short_task, name="short")
        soc.step(2_000_000)
        # The short task's 100-cycle op could not start until the core
        # freed at ~1M cycles.
        assert finish["short"] > 1_000_000

    def test_halted_property_requires_all(self):
        def quick(rt):
            yield from rt.compute(10)

        def slow(rt):
            yield from rt.compute(10_000_000)

        soc = Soc(CONFIG_A)
        soc.load_program(quick, name="quick")
        soc.add_program(slow, name="slow")
        soc.step(1_000)
        # quick's generator is exhausted (halt is latched at its next
        # fetch); the SoC as a whole is still running.
        assert not soc.halted
        soc.step(20_000_000)
        assert soc.task("quick").halted
        assert soc.halted

    def test_rx_race_returns_none_not_underflow(self):
        """The check-then-act race across tasks must not trap."""
        results = {}

        def racer(tag):
            def program(rt):
                count = yield from rt.mmio_read(REG_RX_COUNT)
                packet = yield from rt.mmio_read(REG_RX_DATA)
                results[tag] = (count, packet)

            return program

        soc = Soc(CONFIG_A)
        soc.bridge.host_inject(pk.depth_response(1.0))
        soc.load_program(racer("a"), name="a")
        soc.add_program(racer("b"), name="b")
        soc.step(1_000_000)
        packets = [results["a"][1], results["b"][1]]
        # Exactly one task won the packet; the loser observed None.
        assert sum(p is not None for p in packets) == 1


class TestIoDemux:
    def test_mailbox_sorting(self):
        demux = IoDemux()
        demux.deliver(pk.depth_response(1.0))
        demux.deliver(pk.imu_response(0, 0, 0, 0, 0))
        demux.deliver(pk.depth_response(2.0))
        assert demux.pending(PacketType.DEPTH_RESP) == 2
        assert demux.pending(PacketType.IMU_RESP) == 1
        assert demux.take(PacketType.DEPTH_RESP).values == (1.0,)
        assert demux.packets_sorted == 3

    def test_two_tasks_share_queue_without_loss(self):
        """Each task receives its own response type through the demux."""
        demux = IoDemux()
        got = {}

        def want(tag, request, response_type):
            def program(rt):
                packet = yield from demux.request(rt, request, response_type)
                got[tag] = packet

            return program

        soc = Soc(CONFIG_A)
        soc.load_program(want("depth", pk.depth_request(), PacketType.DEPTH_RESP), name="d")
        soc.add_program(want("imu", pk.imu_request(), PacketType.IMU_RESP), name="i")
        # Responses arrive "swapped" so each task must sort for the other.
        soc.step(100_000)  # let both requests go out
        soc.bridge.host_inject(pk.imu_response(1, 2, 3, 4, 5))
        soc.bridge.host_inject(pk.depth_response(7.0))
        soc.step(5_000_000)
        assert got["depth"].values == (7.0,)
        assert got["imu"].values[:4] == (1, 2, 3, 4)


class TestBackgroundWorkloads:
    def test_config_validation(self):
        with pytest.raises(ConfigError):
            CoSimConfig(background="crypto-miner")
        with pytest.raises(ConfigError):
            CoSimConfig(background="slam-mapper", controller="mpc")

    def test_mapper_runs_without_breaking_mission(self):
        base = dict(
            world="tunnel",
            model="resnet14",
            target_velocity=3.0,
            initial_angle_deg=20.0,
            max_sim_time=40.0,
        )
        solo = run_mission(CoSimConfig(**base))
        multi = run_mission(CoSimConfig(**base, background="slam-mapper"))
        assert multi.completed and multi.collisions == 0
        assert multi.background_stats.updates > 50
        assert multi.background_stats.mean_pose_error < 2.0
        # Light CPU tenant: small controller-latency impact.
        assert multi.mean_inference_latency_ms < solo.mean_inference_latency_ms * 1.3

    def test_monitor_contention_inflates_latency(self):
        base = dict(
            world="tunnel",
            model="resnet14",
            target_velocity=3.0,
            max_sim_time=15.0,
        )
        solo = run_mission(CoSimConfig(**base))
        multi = run_mission(CoSimConfig(**base, background="dnn-monitor"))
        assert multi.monitor_stats.inferences > 20
        assert multi.mean_inference_latency_ms > solo.mean_inference_latency_ms * 1.2
        # Both tenants' accelerator work shows up in the activity factor.
        assert multi.gemmini_busy_cycles > 0
