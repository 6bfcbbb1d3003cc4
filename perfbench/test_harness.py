"""Tests for the benchmark harness's own logic.

Run from the repository root::

    python3 -m pytest -q perfbench/test_harness.py
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracing
import workloads

sys.path.insert(0, str(run.SRC))
run.pin_environment()

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


class FakeClock:
    """Returns the scripted instants in order."""

    def __init__(self, instants: list[float]):
        self.instants = list(instants)

    def __call__(self) -> float:
        return self.instants.pop(0)


def test_self_time_on_nested_tree_with_a_raising_call() -> None:
    # outer [0, 10] calls inner [1, 4] and failing [5, 9]; failing calls
    # inner [6, 7] and then raises.
    tracer = tracing.Tracer(clock=FakeClock([0, 1, 4, 5, 6, 7, 9, 10]))

    def inner_fn() -> str:
        return "ok"

    def failing_fn() -> None:
        inner()
        raise ValueError("boom")

    def outer_fn() -> None:
        inner()
        with pytest.raises(ValueError):
            failing()

    inner = tracer.wrap("env.camera", inner_fn)
    failing = tracer.wrap("link.rpc", failing_fn)
    outer = tracer.wrap("cosim.mission", outer_fn)
    outer()

    assert tracer.calls["env.camera"] == 2
    assert tracer.calls["link.rpc"] == 1
    assert tracer.calls["cosim.mission"] == 1
    assert tracer.self_s["env.camera"] == pytest.approx(3 + 1)
    assert tracer.self_s["link.rpc"] == pytest.approx(4 - 1)
    assert tracer.self_s["cosim.mission"] == pytest.approx(10 - 3 - 4)
    assert tracer.incl_s["link.rpc"] == pytest.approx(4)
    assert tracer.covered_s == pytest.approx(10)
    assert sum(tracer.self_s.values()) == pytest.approx(tracer.covered_s)


def test_counter_hooks_see_results_and_exceptions() -> None:
    tracer = tracing.Tracer()

    class ScenarioError(Exception):
        pass

    def compile_fn(ok: bool) -> str:
        if not ok:
            raise ScenarioError("infeasible")
        return "config"

    wrapped = tracer.wrap("scenario.compile", compile_fn, after=tracing._compile_reject)
    wrapped(True)
    with pytest.raises(ScenarioError):
        wrapped(False)
    assert tracer.calls["scenario.compile"] == 2
    assert tracer.counters["scenario.compile.rejects"] == 1


def tiny_configs() -> list:
    from repro.core.config import CoSimConfig

    return [CoSimConfig(world="tunnel", max_sim_time=0.3, seed=seed) for seed in (1, 2)]


class TinyMissions(workloads.Workload):
    """Two short tunnel missions per round, checked like the real workloads."""

    name = "tiny"

    def setup(self) -> None:
        from repro.sweep.runner import SweepTask

        self.all_tasks = [SweepTask(f"t{i}", config) for i, config in enumerate(tiny_configs())]

    def run_round(self, index: int):
        from repro.sweep.runner import SweepRunner

        return SweepRunner(workers=1, batch_size=1).run(self.all_tasks)

    def check(self, index: int, output) -> workloads.RoundCheck:
        check = workloads.RoundCheck(missions=len(output.outcomes))
        check.digest = workloads._digest(self._check_outcomes(output.outcomes, "tiny", check))
        return check


def _tiny(tmp_path: Path, wrong_signatures: int = 0) -> TinyMissions:
    import record

    missions = record.mission_signatures(tiny_configs())
    for key in sorted(missions)[:wrong_signatures]:
        missions[key] = "0" * 64
    workload = TinyMissions(seed=1, workdir=tmp_path, expected={"missions": missions})
    workload.setup()
    return workload


def test_every_wrapped_attribute_is_restored_after_a_traced_run(tmp_path: Path) -> None:
    before = {}
    for entry in tracing.ENTRY_POINTS:
        found = tracing._resolve(entry.module, entry.attr)
        assert found is not None, f"{entry.module}.{entry.attr} is not in the program"
        owner, name = found
        before[(entry.module, entry.attr)] = (owner, name, vars(owner)[name])
    from repro.sweep import runner

    original_run = vars(runner.SweepRunner)["run"]

    workload = _tiny(tmp_path)
    args = argparse.Namespace(workload="tiny", seconds=0.0)
    result = run.traced_main(args, workload)

    for (module, attr), (owner, name, raw) in before.items():
        assert vars(owner)[name] is raw, f"{module}.{attr} was not restored"
    assert vars(runner.SweepRunner)["run"] is original_run
    assert result["correct"], result
    metrics = result["metrics"]
    assert metrics["sync.grant.calls"]["value"] > 0
    assert metrics["cosim.mission.calls"]["value"] == 4  # two __init__, two run
    assert metrics["batch.round.eligible_share"]["value"] == 1.0
    layer_sum = sum(metrics[f"{layer}.self_s"]["value"] for layer in tracing.LAYERS)
    assert layer_sum + metrics["trace.unattributed_s"]["value"] == pytest.approx(
        metrics["trace.total_s"]["value"]
    )


def test_wrong_expected_signature_raises_error_rate(tmp_path: Path) -> None:
    rounds = run.run_rounds(_tiny(tmp_path, wrong_signatures=1), 0.0, run.HostSpeed())
    check = run.merge_checks(rounds)
    assert (check.missions, check.failed, check.unrecorded) == (2, 1, 0)
    assert len(check.problems) == 1 and "recorded 0000" in check.problems[0]
    metrics = run.end_to_end_metrics(rounds, [0.5], 100.0, 1.0)
    assert metrics["ok_rate"]["value"] == pytest.approx(0.5)
    assert run.result(check, metrics)["correct"] is False


def test_every_printed_metric_is_named_in_benchmark_json() -> None:
    rounds = [run.Round(2.0, 2.1, workloads.RoundCheck(missions=4))]
    end_to_end = run.end_to_end_metrics(rounds, [0.4, 0.5, 0.6], 80.0, 1.0)
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {name: m["unit"] for name, m in end_to_end.items()} == declared

    observer = tracing.TaskObserver()
    per_layer = run.per_layer_metrics(tracing.Tracer(), observer, 1.0, 1.0, 1.0)
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {name: m["unit"] for name, m in per_layer.items()} == declared


def test_benchmark_json_names_every_workload() -> None:
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


def test_inputs_come_from_the_seed_and_stay_in_recorded_pools() -> None:
    assert workloads.fig11_configs(3) == workloads.fig11_configs(3)
    assert workloads.fig11_configs(3) != workloads.fig11_configs(4)
    assert all(c.seed < workloads.FIG11_SEED_POOL for c in workloads.fig11_configs(7))
    assert workloads.fuzz_campaigns(5) == workloads.fuzz_campaigns(5)
    assert sorted(workloads.fuzz_campaigns(5)) == list(range(1, workloads.FUZZ_CAMPAIGN_POOL + 1))
    assert workloads.serve_configs(2) == workloads.serve_configs(2)


def test_bare_benchmark_directory_exits_nonzero_without_a_result(tmp_path: Path) -> None:
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig11-serial", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, env=env,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
