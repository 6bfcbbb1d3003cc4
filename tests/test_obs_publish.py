"""A mission's metrics are published once, when its result is collected.

The golden corpus pins every series its twelve missions write; these
tests pin the publish rules it does not reach: which series exist at 0,
which exist only under a fault plan, and that no mission component
carries a live registry into the result (and so into the sweep cache).
"""

from __future__ import annotations

import pickle

import pytest

from repro.core.config import CoSimConfig
from repro.core.cosim import CoSimulation, run_mission
from repro.core.faults import FaultPlan, FaultRule
from repro.core.packets import PacketType
from repro.obs import MetricsRegistry

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
