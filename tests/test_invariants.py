"""Tests for the runtime invariant checker (repro.core.invariants)."""

from __future__ import annotations

import pytest

from repro.core.config import CoSimConfig, SyncConfig
from repro.core.cosim import CoSimulation, run_mission
from repro.core.faults import FaultInjector, FaultPlan
from repro.core.invariants import InvariantChecker, invariants_enabled
from repro.core.packets import PacketType
from repro.errors import InvariantViolation
from repro.sweep import mission_signature


def _tiny_config(**overrides) -> CoSimConfig:
    base = dict(world="tunnel", model="resnet6", max_sim_time=1.0)
    base.update(overrides)
    return CoSimConfig(**base)


SYNC = SyncConfig()


class TestEnablement:
    def test_explicit_flag_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHECK_INVARIANTS", "1")
        assert not invariants_enabled(_tiny_config(check_invariants=False))
        monkeypatch.setenv("REPRO_CHECK_INVARIANTS", "0")
        assert invariants_enabled(_tiny_config(check_invariants=True))

    def test_env_var_resolves_auto(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHECK_INVARIANTS", "0")
        assert not invariants_enabled(_tiny_config())
        monkeypatch.setenv("REPRO_CHECK_INVARIANTS", "yes")
        assert invariants_enabled(_tiny_config())

    def test_on_by_default_under_pytest(self, monkeypatch):
        monkeypatch.delenv("REPRO_CHECK_INVARIANTS", raising=False)
        # PYTEST_CURRENT_TEST is set by pytest itself right now.
        assert invariants_enabled(_tiny_config())

    def test_off_outside_pytest(self, monkeypatch):
        monkeypatch.delenv("REPRO_CHECK_INVARIANTS", raising=False)
        monkeypatch.delenv("PYTEST_CURRENT_TEST", raising=False)
        assert not invariants_enabled(_tiny_config())

    def test_bad_flag_rejected(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            CoSimConfig(check_invariants="yes")  # type: ignore[arg-type]

    def test_cosim_wires_checker_when_enabled(self):
        sim = CoSimulation(_tiny_config(check_invariants=True))
        assert sim.invariants is not None
        assert sim.soc.bridge.invariants is sim.invariants

    def test_cosim_skips_checker_when_disabled(self):
        sim = CoSimulation(_tiny_config(check_invariants=False))
        assert sim.invariants is None
        assert sim.soc.bridge.invariants is None


class TestEndToEnd:
    def test_clean_mission_checks_every_step(self):
        sim = CoSimulation(_tiny_config(check_invariants=True))
        result = sim.run()
        report = sim.invariants.report
        assert report.steps_checked == result.sync_stats.steps
        assert report.steps_checked > 0
        assert report.dones_seen == report.steps_checked
        assert report.bridge_checks == report.steps_checked
        assert report.link_checks == report.steps_checked

    def test_checking_is_observational(self):
        """A passing mission is bit-identical with the checker on or off."""
        on = run_mission(_tiny_config(check_invariants=True, seed=5))
        off = run_mission(_tiny_config(check_invariants=False, seed=5))
        # check_invariants is part of the config (and cache key), but the
        # *behaviour* it observes must not change.
        assert mission_signature(on) == mission_signature(off)

    def test_faulty_mission_passes_checks(self):
        plan = FaultPlan(
            seed=3,
            rules=(
                {"ptype": "CAMERA_RESP", "corrupt": 0.2, "duplicate": 0.1},
                {"ptype": "IMU_RESP", "drop": 0.1, "delay": 0.2},
            ),
        )
        sim = CoSimulation(_tiny_config(check_invariants=True, faults=plan))
        sim.run()
        assert sim.invariants.report.steps_checked > 0
        assert sim.invariants.report.injector_steps > 0


class TestViolationsRaise:
    """Corrupt each watched piece of state; the checker must catch it."""

    def _run_checked(self, **overrides) -> CoSimulation:
        sim = CoSimulation(_tiny_config(check_invariants=True, **overrides))
        sim.run()
        return sim

    def test_grant_for_completed_step(self):
        checker = InvariantChecker(SYNC)
        checker.on_grant(0)
        checker.on_done(0)
        checker.after_step(0, SYNC.sync_period_seconds)
        with pytest.raises(InvariantViolation, match="grant-pairing"):
            checker.on_grant(0)

    def test_done_without_grant(self):
        checker = InvariantChecker(SYNC)
        with pytest.raises(InvariantViolation, match="without a matching grant"):
            checker.on_done(4)

    def test_stale_done_for_uncompleted_step(self):
        checker = InvariantChecker(SYNC)
        with pytest.raises(InvariantViolation, match="classified stale"):
            checker.on_done(2, stale=True)

    def test_sim_time_must_advance_exactly_one_period(self):
        checker = InvariantChecker(SYNC)
        checker.on_grant(0)
        checker.on_done(0)
        with pytest.raises(InvariantViolation, match="monotonic-sim-time"):
            checker.after_step(0, 2.5 * SYNC.sync_period_seconds)

    def test_step_without_done(self):
        checker = InvariantChecker(SYNC)
        checker.on_grant(0)
        with pytest.raises(InvariantViolation, match="without its SYNC_DONE"):
            checker.after_step(0, SYNC.sync_period_seconds)

    def test_soc_cycle_drift_detected(self):
        sim = CoSimulation(_tiny_config(check_invariants=True))
        sim.soc.cycle += 1  # steal one cycle beyond the granted budget
        with pytest.raises(InvariantViolation, match="token-conservation"):
            sim.run()

    def test_bridge_counter_drift_detected(self):
        sim = CoSimulation(_tiny_config(check_invariants=True))
        sim.soc.bridge.counters.rx_enqueued += 3
        with pytest.raises(InvariantViolation, match="token-conservation"):
            sim.run()

    def test_unexplained_crc_discard_detected(self):
        checker = InvariantChecker(SYNC)

        class FakeTransport:
            corrupt_packets = 2

        checker.watch(transports=(FakeTransport(),), injector=None)
        with pytest.raises(InvariantViolation, match="crc-accounting"):
            checker.check_link()

    def test_crc_discards_bounded_by_injector(self):
        checker = InvariantChecker(SYNC)

        class FakeTransport:
            corrupt_packets = 5

        injector = FaultInjector(FaultPlan())
        injector.injected = {
            ("corrupt", PacketType.CAMERA_RESP): 1,
            ("duplicate", PacketType.CAMERA_RESP): 1,
        }
        checker.watch(transports=(FakeTransport(),), injector=injector)
        with pytest.raises(InvariantViolation, match="crc-accounting"):
            checker.check_link()

    def test_injector_step_monotonic(self):
        checker = InvariantChecker(SYNC)
        checker.on_injector_step(0, 3)
        with pytest.raises(InvariantViolation, match="injector-monotonic"):
            checker.on_injector_step(3, 1)

    def test_duplicate_done_for_current_step_is_benign(self):
        checker = InvariantChecker(SYNC)
        checker.on_grant(0)
        checker.on_done(0)
        checker.on_done(0)  # injected duplication of the same SYNC_DONE
        assert checker.report.stale_dones_seen == 1
        checker.after_step(0, SYNC.sync_period_seconds)

    def test_report_as_dict(self):
        checker = InvariantChecker(SYNC)
        checker.on_grant(0)
        checker.on_done(0)
        checker.after_step(0, SYNC.sync_period_seconds)
        counts = checker.report.as_dict()
        assert counts["steps_checked"] == 1
        assert counts["grants_seen"] == 1
        assert counts["dones_seen"] == 1
