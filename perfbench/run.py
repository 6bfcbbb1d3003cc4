"""End-to-end co-simulation benchmark: one workload, one seed, one process.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fig11-serial --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload fig11-serial --seed 1 --seconds 20 --trace 1

With ``--trace 0`` the run repeats the workload's round until the time is
up and prints the end-to-end metrics of ``BENCHMARK.json``; with
``--trace 1`` it times a few untraced rounds, then traces one round with
the per-layer wrappers of ``tracing.py`` and prints the per-layer
metrics.  The last line of standard output is always one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import uuid
from dataclasses import dataclass
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Per-run scratch space, inside the checkout; removed when the run ends.
SCRATCH = ROOT / ".perfbench_tmp"
EXPECTED = HERE / "expected.json"

#: Settings pinned for the measured program (printed with every result).
PINNED_ENV = {
    "REPRO_CHECK_INVARIANTS": "0",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
UNSET_ENV = (
    "REPRO_SWEEP_WORKERS",
    "REPRO_SWEEP_BATCH",
    "REPRO_SWEEP_CACHE_DIR",
    "REPRO_SWEEP_CHAOS",
)
#: Set-up is measured in this many fresh interpreters per run (median).
SETUP_SAMPLES = 3
#: A traced run spends this share of ``--seconds`` on untraced rounds.
UNTRACED_SHARE = 0.5
SETUP_READY = "perfbench-setup-ready"
#: CPU seconds the speed probe takes on the reference host (see HostSpeed).
PROBE_REFERENCE_S = 0.017
#: Before every round the probe runs at least this many times ...
PROBES_PER_ROUND = 3
#: ... and for at least this share of the previous round's wall time.
PROBE_SHARE = 0.05

END_TO_END_UNITS = {
    "setup_s": "s",
    "missions_per_cpu_s": "missions/cpu-s",
    "wall_s": "s",
    "peak_rss_mb": "MiB",
    "ok_rate": "fraction",
}


def pin_environment() -> None:
    os.environ.update(PINNED_ENV)
    for name in UNSET_ENV:
        os.environ.pop(name, None)


def _probe_kernel(lanes, scratch) -> float:
    """Interpreter-bound arithmetic plus NumPy passes over a 3 MiB array.

    Of the probe kinds tried on a shared 2-vCPU host (arithmetic loop,
    small-array NumPy, large-array NumPy, object churn), this pair tracked
    the co-simulation's own speed best.  The passes work in place on
    preallocated arrays so that the probe never raises ``peak_rss_mb``.
    """
    import numpy as np

    total = 0.0
    for i in range(80_000):
        total += math.hypot(i * 0.5, 3.0) % 7.0
    for _ in range(6):
        np.multiply(lanes, lanes, out=scratch)
        scratch += 1.0
        np.sqrt(scratch, out=lanes)
        lanes -= 0.5
    return total + float(lanes[0])


class HostSpeed:
    """How fast this host runs right now, relative to the reference host.

    A shared host can change speed by 2x within an hour (other tenants),
    which moves every CPU and wall time alike.  A
    fixed probe kernel is timed before every round; times are reported
    in reference-host seconds: ``measured * factor`` with
    ``factor = PROBE_REFERENCE_S / median(probe CPU seconds)``.
    """

    def __init__(self) -> None:
        import numpy as np

        self.samples: list[float] = []
        self._lanes = np.linspace(0.0, 1.0, 400_000)
        self._scratch = np.empty_like(self._lanes)

    def probe(self, seconds: float = 0.0) -> None:
        """Time the probe ``PROBES_PER_ROUND`` times, and for at least ``seconds``."""
        deadline = time.perf_counter() + seconds
        for done in itertools.count():
            if done >= PROBES_PER_ROUND and time.perf_counter() >= deadline:
                return
            start = time.process_time()
            _probe_kernel(self._lanes, self._scratch)
            self.samples.append(time.process_time() - start)

    @property
    def factor(self) -> float:
        return PROBE_REFERENCE_S / statistics.median(self.samples)


@dataclass
class Round:
    cpu: float
    wall: float
    check: Any  # workloads.RoundCheck


def _seconds(values) -> str:
    return " ".join(f"{value:.3f}" for value in values)


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def load_expected() -> dict:
    return json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}


def run_rounds(workload, seconds: float, speed: HostSpeed, index_of=lambda n: n) -> list[Round]:
    """Repeat timed rounds until ``seconds`` of wall time are (about) used.

    Another round starts only while the expected end stays within half a
    round of the budget; at least one round always runs.  The speed probe
    and the output checks run between rounds, outside the timed region.
    """
    rounds: list[Round] = []
    start = time.perf_counter()
    while True:
        speed.probe(PROBE_SHARE * rounds[-1].wall if rounds else 0.0)
        index = index_of(len(rounds))
        cpu0, wall0 = time.process_time(), time.perf_counter()
        output = workload.run_round(index)
        wall = time.perf_counter() - wall0
        cpu = time.process_time() - cpu0
        rounds.append(Round(cpu, wall, workload.check(index, output)))
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / len(rounds) >= seconds:
            return rounds


def measure_setup(args: argparse.Namespace) -> list[float]:
    """Wall seconds from interpreter start to set-up done, in fresh processes."""
    samples = []
    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        "--seconds",
        str(args.seconds),
        "--setup-only",
    ]
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        child = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
        try:
            for line in child.stdout:
                if line.strip() == SETUP_READY:
                    samples.append(time.perf_counter() - t0)
                    break
        finally:
            child.stdout.close()
            if child.wait(timeout=60) != 0:
                raise RuntimeError(f"set-up child exited {child.returncode}")
    if len(samples) != SETUP_SAMPLES:
        raise RuntimeError("a set-up child never reported ready")
    return samples


def merge_checks(rounds: list[Round]):
    """One RoundCheck totalling every round's."""
    import workloads

    total = workloads.RoundCheck(missions=0)
    for r in rounds:
        total.missions += r.check.missions
        total.failed += r.check.failed
        total.problems += r.check.problems
        total.unrecorded += r.check.unrecorded
        total.notes += [note for note in r.check.notes if note not in total.notes]
    return total


def report_checks(check) -> None:
    if check.unrecorded:
        print(f"outputs: {check.unrecorded} output(s) have no recorded expected value "
              f"(checked for task failures and serve-job equality only)")
    else:
        print("outputs: every output compared against perfbench/expected.json")
    for problem in check.problems:
        print(f"MISMATCH {problem}")
    for note in check.notes:
        print(f"note: {note}")
    print(f"failed {check.failed} of {check.missions} attempted missions")


def result(check, metrics: dict) -> dict:
    return {
        "correct": check.failed == 0 and not check.problems,
        "attempted": check.missions,
        "failed": check.failed,
        "metrics": metrics,
    }


def end_to_end_metrics(rounds: list[Round], setups: list[float], peak_rss_mb: float,
                       factor: float) -> dict:
    """The ``end_to_end`` metrics of BENCHMARK.json; times in reference-host seconds."""
    check = merge_checks(rounds)
    values = {
        "setup_s": statistics.median(setups) * factor,
        "missions_per_cpu_s": check.missions / (sum(r.cpu for r in rounds) * factor),
        "wall_s": statistics.mean(r.wall for r in rounds) * factor,
        "peak_rss_mb": peak_rss_mb,
        "ok_rate": (check.missions - check.failed) / check.missions,
    }
    return {
        name: {"value": value, "unit": END_TO_END_UNITS[name]} for name, value in values.items()
    }


def untraced_main(args: argparse.Namespace, workload) -> dict:
    speed = HostSpeed()
    rounds = run_rounds(workload, args.seconds, speed)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setups = measure_setup(args)
    speed.probe()
    check = merge_checks(rounds)
    cpu = sum(r.cpu for r in rounds)
    print(f"rounds: {len(rounds)}; {check.missions} missions; {cpu:.3f} CPU-s; "
          f"round wall s: {_seconds(r.wall for r in rounds)}")
    print(f"setup samples s: {_seconds(setups)}")
    print(f"host speed factor {speed.factor:.4f} (probe median "
          f"{statistics.median(speed.samples) * 1e3:.3f} ms over {len(speed.samples)} "
          f"samples, reference {PROBE_REFERENCE_S * 1e3:g} ms); unscaled: "
          f"missions_per_cpu_s {check.missions / cpu:.4f}, "
          f"wall_s {statistics.mean(r.wall for r in rounds):.4f}, "
          f"setup_s {statistics.median(setups):.4f}")
    report_checks(check)
    return result(check, end_to_end_metrics(rounds, setups, peak_rss_mb, speed.factor))


def per_layer_metrics(tracer, observer, total: float, untraced_wall: float,
                      factor: float) -> dict:
    """The ``per_layer`` metrics of BENCHMARK.json; times in reference-host seconds."""
    import tracing

    metrics: dict[str, dict] = {}
    for layer in tracing.LAYERS:
        metrics[f"{layer}.calls"] = {"value": tracer.calls[layer], "unit": "count"}
        metrics[f"{layer}.self_s"] = {"value": tracer.self_s[layer] * factor, "unit": "s"}
    metrics["sync.log_row.incl_s"] = {"value": tracer.incl_s["sync.log_row"] * factor, "unit": "s"}
    for name in tracing.EXTRA_COUNTERS:
        unit = "cycles" if name.endswith("sim_cycles") else "count"
        metrics[name] = {"value": tracer.counters[name], "unit": unit}
    metrics["batch.round.eligible_share"] = {"value": observer.eligible_share, "unit": "fraction"}
    metrics["trace.total_s"] = {"value": total * factor, "unit": "s"}
    metrics["trace.unattributed_s"] = {"value": (total - tracer.covered_s) * factor, "unit": "s"}
    metrics["trace.overhead"] = {"value": total / untraced_wall - 1.0, "unit": "fraction"}
    return metrics


def traced_main(args: argparse.Namespace, workload) -> dict:
    import tracing

    # Untraced repetitions of round 0 give the overhead baseline and the
    # outputs the traced round must reproduce.
    speed = HostSpeed()
    baseline = run_rounds(workload, args.seconds * UNTRACED_SHARE, speed, index_of=lambda _n: 0)
    speed.probe()
    observer = tracing.TaskObserver()
    tracer = tracing.Tracer()
    installation = tracing.install(tracer)
    observer.install()
    try:
        t0 = tracer.clock()
        output = workload.run_round(0)
        total = tracer.clock() - t0
    finally:
        observer.restore()
        installation.restore()
    speed.probe()
    traced = Round(0.0, total, workload.check(0, output))
    check = merge_checks(baseline + [traced])
    if traced.check.digest != baseline[0].check.digest:
        check.problems.append(f"{args.workload}: traced outputs differ from the untraced outputs")
    tracer.counters["batch.round.fallbacks"] += observer.unbatched
    untraced_wall = statistics.median(r.wall for r in baseline)
    metrics = per_layer_metrics(tracer, observer, total, untraced_wall, speed.factor)

    unattributed = total - tracer.covered_s
    layer_sum = sum(tracer.self_s.values()) + unattributed
    if abs(layer_sum - total) > 1e-6 * max(total, 1.0) or unattributed < 0:
        check.problems.append(
            f"layer self times do not sum to the traced total ({layer_sum} vs {total})"
        )
    print(f"untraced rounds of round 0: {len(baseline)}; wall s: "
          f"{_seconds(r.wall for r in baseline)}")
    print(f"traced round wall s: {total:.4f} (overhead {total / untraced_wall - 1.0:+.1%}); "
          f"layers + unattributed = {layer_sum:.6f} s; host speed factor {speed.factor:.4f}")
    if installation.missing:
        print(f"entry points not present (not wrapped): {', '.join(installation.missing)}")
    print(observer.describe())
    print(f"{'layer':<18} {'calls':>9} {'self_s':>10} {'share':>7}")
    for layer in sorted(tracing.LAYERS, key=lambda name: -tracer.self_s[name]):
        print(f"{layer:<18} {tracer.calls[layer]:>9} {tracer.self_s[layer]:>10.4f} "
              f"{tracer.self_s[layer] / total:>7.1%}")
    print(f"{'(unattributed)':<18} {'':>9} {unattributed:>10.4f} {unattributed / total:>7.1%}")
    report_checks(check)
    return result(check, metrics)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    pin_environment()
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = SCRATCH / f"{os.getpid()}-{uuid.uuid4().hex[:8]}"
    workdir.mkdir(parents=True)
    try:
        expected = {} if args.setup_only else load_expected()
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir, expected)
        workload.setup()
        if args.setup_only:
            print(SETUP_READY, flush=True)
            return 0
        import numpy

        print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
              f"trace={args.trace}: {workload.describe()}")
        print(f"pinned: {' '.join(f'{k}={v}' for k, v in PINNED_ENV.items())}; unset: "
              f"{' '.join(UNSET_ENV)}; fresh scratch dir per run; python "
              f"{platform.python_version()}, numpy {numpy.__version__}, "
              f"{os.cpu_count()} cpu(s); one process, no threads")
        outcome = traced_main(args, workload) if args.trace else untraced_main(args, workload)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass
    for name, metric in outcome["metrics"].items():
        print(f"{name:<34} {metric['value']:>14.6g} {metric['unit']}")
    print(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main())
