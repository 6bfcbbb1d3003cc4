"""Ablation: fault tolerance — mission outcome vs link loss rate.

The deployed synchronizer <-> FireSim link is a real network connection
(Section 3.4.1); this ablation injects seeded sensor-response drops at
increasing rates and flies the tunnel trail-navigation mission at each,
reporting mission outcome alongside the resilience machinery's work
(retries, regrants, degradation actions).  The qualitative claims: the
control loop absorbs moderate loss (the retry/stale-frame paths recover
every dropped response), the recovery work grows with the loss rate, and
the same plan + seed reproduces byte-identical fault counters.
"""

from __future__ import annotations

from dataclasses import replace

from repro import CoSimConfig, FaultPlan, run_mission
from repro.analysis.render import format_table

DROP_RATES = (0.0, 0.05, 0.10, 0.20)


def fault_config(drop: float) -> CoSimConfig:
    return CoSimConfig(
        world="tunnel", soc="A", model="resnet14", target_velocity=3.0,
        max_sim_time=60.0,
        faults=FaultPlan.sensor_response_drop(drop, seed=7) if drop else None,
    )


def test_fault_tolerance_ablation(benchmark, run_once):
    def sweep():
        return {drop: run_mission(fault_config(drop)) for drop in DROP_RATES}

    data = run_once(benchmark, sweep)

    rows = []
    for drop, result in data.items():
        stats = result.app_stats
        dropped = result.sync_stats.packets_dropped if result.sync_stats else 0
        status = f"{result.mission_time:.2f}s" if result.completed else (
            result.failure_reason or "DNF"
        )
        rows.append([
            f"{drop:.0%}", status, dropped, stats.sensor_timeouts,
            stats.sensor_retries, stats.stale_frames_reused,
        ])
    print()
    print(format_table(
        ["drop rate", "mission", "dropped", "timeouts", "retries", "degraded"],
        rows,
        title="Ablation: sensor-response loss tolerance",
    ))

    # The acceptance bar: 10% loss must not break the mission.
    for drop in DROP_RATES:
        assert data[drop].completed, f"mission failed at {drop:.0%} loss"
        assert data[drop].failure_reason is None

    # Loss-free flight pays zero resilience cost.
    clean = data[0.0]
    assert clean.app_stats.sensor_timeouts == 0
    assert clean.sync_stats.fault_summary() == {
        name: 0 for name in clean.sync_stats.fault_summary()
    }

    # Recovery work is monotone-ish in the loss rate: the heaviest plan
    # does strictly more than the lightest.
    assert (
        data[0.20].app_stats.sensor_timeouts > data[0.05].app_stats.sensor_timeouts
    )
    assert data[0.20].sync_stats.packets_dropped > data[0.05].sync_stats.packets_dropped


def test_fault_injection_reproducibility(benchmark, run_once):
    config = replace(fault_config(0.10), max_sim_time=20.0)

    def twice():
        return run_mission(config), run_mission(config)

    first, second = run_once(benchmark, twice)
    assert first.sync_stats.fault_summary() == second.sync_stats.fault_summary()
    assert first.app_stats.sensor_timeouts == second.app_stats.sensor_timeouts
    assert first.mission_time == second.mission_time
    print()
    print(f"fault counters (both runs): {first.sync_stats.fault_summary()}")
