"""Batched mission engine throughput: the >=5x missions/sec/core gate.

ROADMAP open item 2 asks for a vectorized engine delivering at least 5x
missions/sec/core over the serial path on a sweep-shaped workload.  This
bench runs a fig11-style group (s-shape course, SoC A, rotating DNN
variants, 16 seeds) serially and at several lockstep widths, asserting:

* every batch size produces signatures bit-identical to serial;
* the full-width batch is >=5x faster than serial **per core**, gated on
  CPU seconds (``time.process_time``): both sides are a single process,
  so CPU seconds is exactly the per-core denominator — and unlike
  wall-clock it is immune to other-process contention on shared CI
  machines (+-20% wall noise observed).  The gate is never skipped on
  small machines, core count included: per-core means a 1-core box
  measures the same ratio.
* the batch-size scaling curve (1, 4, 8, 16) is recorded so the perf
  trajectory is tracked over time.

Timed sections take the best of N repetitions: the minimum of a
deterministic computation is the least-contended measurement, not a
statistical cherry-pick.

Besides the pytest-benchmark record, the bench emits ``BENCH_batch.json``
at the repo root — a small standalone perf record downstream tooling can
diff without parsing the full benchmark JSON.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any, Callable

from repro.batch.engine import run_batch
from repro.core.config import CoSimConfig
from repro.core.cosim import run_mission
from repro.sweep.signature import mission_signature

BENCH_RECORD = Path(__file__).resolve().parent.parent / "BENCH_batch.json"

#: Rotating DNN variants, as in the fig11 sweep.
MODELS = ("resnet6", "resnet11", "resnet14", "resnet18")

BATCH_SIZES = (1, 4, 8, 16)
GATE_SPEEDUP = 5.0


def _fig11_style_configs(count: int = 16) -> list[CoSimConfig]:
    return [
        CoSimConfig(
            world="s-shape",
            soc="A",
            model=MODELS[seed % len(MODELS)],
            target_velocity=9.0,
            max_sim_time=8.0,
            seed=seed,
        )
        for seed in range(count)
    ]


def _run_chunked(configs: list[CoSimConfig], size: int) -> list[Any]:
    """Fly ``configs`` (one batch group) in lockstep chunks of ``size``."""
    return [
        result
        for lo in range(0, len(configs), size)
        for result in run_batch(configs[lo : lo + size])
    ]


def _best_of(reps: int, fn: Callable[[], Any]) -> tuple[float, float, Any]:
    """Return (best CPU seconds, best wall seconds, a result)."""
    best_cpu = best_wall = float("inf")
    best_result: Any = None
    for _ in range(reps):
        cpu0, wall0 = time.process_time(), time.perf_counter()
        result = fn()
        cpu = time.process_time() - cpu0
        wall = time.perf_counter() - wall0
        best_wall = min(best_wall, wall)
        if cpu < best_cpu:
            best_cpu, best_result = cpu, result
    return best_cpu, best_wall, best_result


def test_batch_throughput_and_scaling(benchmark):
    configs = _fig11_style_configs()
    missions = len(configs)

    serial_cpu, serial_wall, serial_results = _best_of(
        2, lambda: [run_mission(cfg) for cfg in configs]
    )
    serial_signatures = [mission_signature(r) for r in serial_results]

    # The gated full-width measurement runs first (before the scaling
    # sweep below can fragment the allocator) and under the
    # pytest-benchmark timer; CPU seconds are captured per round.
    full_width = BATCH_SIZES[-1]
    batched_results: list[Any] = []
    round_cpu: list[float] = []

    def _full_batch() -> None:
        cpu0 = time.process_time()
        batched_results[:] = _run_chunked(configs, full_width)
        round_cpu.append(time.process_time() - cpu0)

    benchmark.pedantic(_full_batch, rounds=3, iterations=1)
    batch_cpu = min(round_cpu)
    batch_wall = benchmark.stats.stats.min
    assert [mission_signature(r) for r in batched_results] == serial_signatures

    speedup = serial_cpu / batch_cpu
    # The headline gate: >=5x missions/sec/core, on CPU seconds.
    assert speedup >= GATE_SPEEDUP, (
        f"batched engine delivered {speedup:.2f}x missions/sec/core "
        f"(serial {serial_cpu:.2f} cpu-s vs batch{full_width} "
        f"{batch_cpu:.2f} cpu-s for {missions} missions); gate is "
        f">={GATE_SPEEDUP}x"
    )

    # Scaling curve: same workload in lockstep chunks of each size.
    curve: list[dict[str, float | int]] = []
    for size in BATCH_SIZES[:-1]:
        cpu, wall, results = _best_of(
            1, lambda size=size: _run_chunked(configs, size)
        )
        assert [mission_signature(r) for r in results] == serial_signatures
        curve.append(
            {
                "batch_size": size,
                "cpu_seconds": round(cpu, 3),
                "missions_per_sec_per_core": round(missions / cpu, 3),
            }
        )
    curve.append(
        {
            "batch_size": full_width,
            "cpu_seconds": round(batch_cpu, 3),
            "missions_per_sec_per_core": round(missions / batch_cpu, 3),
        }
    )

    record = {
        "workload": {
            "figure": "fig11-style",
            "world": "s-shape",
            "soc": "A",
            "models": list(MODELS),
            "target_velocity": 9.0,
            "max_sim_time": 8.0,
            "missions": missions,
        },
        "cores_per_run": 1,
        "serial_cpu_seconds": round(serial_cpu, 3),
        "serial_wall_seconds": round(serial_wall, 3),
        "serial_missions_per_sec_per_core": round(missions / serial_cpu, 3),
        "batched_cpu_seconds": round(batch_cpu, 3),
        "batched_wall_seconds": round(batch_wall, 3),
        "batched_missions_per_sec_per_core": round(missions / batch_cpu, 3),
        "speedup": round(speedup, 2),
        "gate_speedup": GATE_SPEEDUP,
        "scaling_curve": curve,
        "signatures_bit_identical": True,
    }
    BENCH_RECORD.write_text(json.dumps(record, indent=2) + "\n")
    benchmark.extra_info.update(record)
