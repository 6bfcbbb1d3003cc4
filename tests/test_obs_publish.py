"""A mission's metrics are published once, when its result is collected.

The golden corpus pins every series its twelve missions write; these
tests pin the publish rules it does not reach: which series exist at 0,
which exist only under a fault plan, that a fault is counted once
whenever it happens, that the ``obs-snapshot`` oracle's cross-layer
books catch a layer that miscounts, and that no mission component
carries a live registry into the result (and so into the sweep cache).
"""

from __future__ import annotations

import itertools
import pickle

import pytest

from repro.core.bridge import RoseBridge
from repro.core.config import CoSimConfig
from repro.core.cosim import CoSimulation, run_mission
from repro.core.faults import FaultPlan, FaultRule
from repro.core.packets import PacketType
from repro.obs import MetricsRegistry
from repro.verify.oracles import registered_oracles

FAULT_KINDS = ["corrupt", "delay", "drop", "duplicate"]


def tunnel(faults: FaultPlan | None) -> CoSimConfig:
    return CoSimConfig(world="tunnel", model="resnet6", max_sim_time=1.0, faults=faults)


@pytest.fixture(scope="module")
def empty_plan_result():
    return run_mission(tunnel(FaultPlan()))


@pytest.fixture(scope="module")
def fault_free_result():
    return run_mission(tunnel(None))


def rows(result, name: str) -> list[dict]:
    return result.obs.metrics[name]["series"]


class TestPublishRules:
    def test_empty_fault_plan_publishes_every_fault_kind_at_zero(
        self, empty_plan_result
    ):
        faults = rows(empty_plan_result, "rose_link_faults_total")
        assert [row["labels"]["kind"] for row in faults] == FAULT_KINDS
        assert [row["value"] for row in faults] == [0, 0, 0, 0]
        assert rows(empty_plan_result, "rose_link_crc_discards_total") == [
            {"labels": {}, "value": 0}
        ]
        # Nothing was injected, so the injector's series stays absent.
        assert rows(empty_plan_result, "rose_faults_injected_total") == []

    def test_fault_free_mission_publishes_no_fault_kinds(self, fault_free_result):
        assert rows(fault_free_result, "rose_link_faults_total") == []
        assert rows(fault_free_result, "rose_link_crc_discards_total") == [
            {"labels": {}, "value": 0}
        ]

    def test_counted_series_exist_iff_non_zero(self, fault_free_result):
        snap = fault_free_result.obs.metrics
        for name in (
            "rose_sync_regrants_total",
            "rose_sync_watchdog_fires_total",
            "rose_sync_sensor_faults_total",
            "rose_app_sensor_timeouts_total",
            "rose_app_deadline_misses_total",
        ):
            assert snap[name]["series"] == [], name
        done = rows(fault_free_result, "rose_sync_done_total")
        assert [row["labels"]["result"] for row in done] == ["ok"]
        stats = fault_free_result.sync_stats
        grants = [
            row["value"]
            for row in rows(fault_free_result, "rose_link_packets_total")
            if row["labels"] == {"direction": "to_rtl", "ptype": "SYNC_GRANT"}
        ]
        assert grants == [stats.sync_grants] == [stats.steps]

    def test_watchdog_at_the_first_step_publishes_no_steps(self):
        # Every SYNC_DONE is lost: step 0 never completes, so the steps and
        # done counts stay 0 and publish nothing, while the regrants and
        # the one watchdog fire are published.
        plan = FaultPlan(rules=(FaultRule(PacketType.SYNC_DONE, drop=1.0),))
        result = run_mission(tunnel(plan))
        assert result.failure_reason == "watchdog"
        assert rows(result, "rose_sync_steps_total") == []
        assert rows(result, "rose_sync_done_total") == []
        assert rows(result, "rose_sync_watchdog_fires_total") == [
            {"labels": {}, "value": 1}
        ]
        assert rows(result, "rose_sync_regrants_total") == [
            {"labels": {}, "value": result.config.sync.max_regrants}
        ]


class TestOneCountPerFault:
    def test_fault_after_the_last_step_is_counted_everywhere(self):
        # The shutdown frame is sent after the last step; its drop reaches
        # the fault summary and both fault series alike.
        plan = FaultPlan(rules=(FaultRule(PacketType.SYNC_SHUTDOWN, drop=1.0),))
        result = run_mission(tunnel(plan))
        assert result.sync_stats.fault_summary()["packets_dropped"] == 1
        link = [r for r in rows(result, "rose_link_faults_total") if r["labels"]["kind"] == "drop"]
        injected = sum(
            row["value"]
            for row in rows(result, "rose_faults_injected_total")
            if row["labels"]["kind"] == "drop"
        )
        assert [row["value"] for row in link] == [injected] == [1]


def obs_snapshot_divergences() -> set[str]:
    """Fields the ``obs-snapshot`` oracle reports as diverged."""
    return {hit.field for hit in registered_oracles()["obs-snapshot"].run()}


class TestObsSnapshotOracleMutants:
    """Each mutant miscounts once in one layer; the oracle's conservation
    books, read from the published snapshot, must notice."""

    def test_clean_run_agrees(self):
        assert obs_snapshot_divergences() == set()

    def test_bridge_that_skips_one_rx_enqueue_count(self, monkeypatch):
        host_inject = RoseBridge.host_inject
        calls = itertools.count()

        def mutant(bridge, packet):
            accepted = host_inject(bridge, packet)
            if accepted and next(calls) == 2:
                bridge.counters.rx_enqueued -= 1
            return accepted

        monkeypatch.setattr(RoseBridge, "host_inject", mutant)
        assert "rx_enqueued" in obs_snapshot_divergences()

    def test_host_that_does_not_count_one_granted_step(self, monkeypatch):
        grant_step = RoseBridge.grant_step
        calls = itertools.count()

        def mutant(bridge):
            budget = grant_step(bridge)
            if next(calls) == 5:
                bridge.counters.steps_granted -= 1
            return budget

        monkeypatch.setattr(RoseBridge, "grant_step", mutant)
        assert "steps_granted" in obs_snapshot_divergences()


class TestNoLiveRegistry:
    def test_finished_result_pickles_no_registry(self, empty_plan_result):
        assert b"MetricsRegistry" not in pickle.dumps(empty_plan_result)

    def test_mission_components_hold_no_registry(self):
        cosim = CoSimulation(tunnel(FaultPlan()))
        for component in (
            cosim,
            cosim.synchronizer,
            cosim.synchronizer.stats,
            cosim.fault_injector,
            cosim.app_stats,
            cosim.fusion_stats,
        ):
            held = [
                name
                for name, value in vars(component).items()
                if isinstance(value, MetricsRegistry)
            ]
            assert held == [], f"{type(component).__name__} holds {held}"
