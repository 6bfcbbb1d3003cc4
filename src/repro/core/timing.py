"""Wall-clock stage accounting for one co-simulation run.

The sweep engine reports where a mission's *host* time goes, split along
the co-simulation's structural seams (Figure 3 / Algorithm 1):

* ``env_step``  — environment work: sensor RPCs served for the SoC
  (camera render, IMU reads, ...) and frame stepping, whose RPC also
  returns the state the CSV row logs;
* ``soc_step``  — FireSim-host work: bridge servicing plus stepping the
  SoC cycle models by the granted budget (the target program runs here);
* ``sync_overhead`` — everything else inside the lockstep loop: packet
  (de)serialization, grant/done bookkeeping, watchdog polling, the CSV
  row;
* ``inference`` — perception + DNN-session work, measured at the
  :class:`~repro.app.perception.Perception` / ``InferenceSession`` choke
  points.  Inference executes *inside* the SoC step (the target program
  calls it), so this stage is an informational subset of ``soc_step``,
  not an additive fourth bucket.

Timing is observational only: a :class:`StageTimer` never feeds back into
simulated behaviour, so instrumented runs stay bit-identical to
uninstrumented ones.
"""

from __future__ import annotations

from time import perf_counter
from typing import TYPE_CHECKING, Any, Callable, Iterable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (app imports core)
    from repro.app.perception import Perception
    from repro.core.packets import DataPacket
    from repro.dnn.calibrated import TrailInference


#: Monotonic wall-clock seconds — the blessed read for stage accounting.
#:
#: Simulation code must not read host time directly (lint rule DET002):
#: results would depend on host speed.  Code charging wall time to a
#: :class:`StageTimer` imports this instead, which keeps every wall-clock
#: read in the one module that is allowed to make them.  It is
#: ``time.perf_counter`` itself, so each read is one C call.
wall_clock: Callable[[], float] = perf_counter


class StageTimer:
    """Accumulates wall-clock seconds per stage."""

    #: Canonical stage names, in reporting order.
    STAGES = ("env_step", "soc_step", "sync_overhead", "inference")

    __slots__ = ("seconds",)

    def __init__(self) -> None:
        self.seconds: dict[str, float] = {stage: 0.0 for stage in self.STAGES}

    def add(self, stage: str, seconds: float) -> None:
        """Accumulate ``seconds`` of wall time into ``stage``."""
        self.seconds[stage] = self.seconds.get(stage, 0.0) + seconds

    def get(self, stage: str) -> float:
        return self.seconds.get(stage, 0.0)

    def asdict(self) -> dict[str, float]:
        """Stage -> seconds, in canonical order (extra stages last)."""
        ordered = {stage: self.seconds.get(stage, 0.0) for stage in self.STAGES}
        for stage, value in self.seconds.items():
            if stage not in ordered:
                ordered[stage] = value
        return ordered

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = ", ".join(f"{k}={v:.3f}s" for k, v in self.asdict().items())
        return f"StageTimer({parts})"


def merge_timings(timings: Iterable[dict[str, float] | None]) -> dict[str, float]:
    """Sum an iterable of per-mission stage dicts (``None`` entries skipped).

    The benchmarks use this to fold a whole sweep's missions into one
    breakdown for the pytest-benchmark JSON.
    """
    merged: dict[str, float] = {stage: 0.0 for stage in StageTimer.STAGES}
    for timing in timings:
        if not timing:
            continue
        for stage, seconds in timing.items():
            merged[stage] = merged.get(stage, 0.0) + seconds
    return merged


class TimedPerception:
    """Wrap a :class:`~repro.app.perception.Perception`, timing each call.

    Behaviourally transparent: delegates ``infer_packet`` unchanged and
    charges the wall time to the timer's ``inference`` stage.
    """

    def __init__(self, inner: "Perception", timer: StageTimer):
        self.inner = inner
        self.timer = timer

    def infer_packet(self, packet: "DataPacket") -> "TrailInference":
        t0 = perf_counter()
        try:
            return self.inner.infer_packet(packet)
        finally:
            self.timer.add("inference", perf_counter() - t0)

    def __getattr__(self, name: str) -> Any:
        # Expose the wrapped perception's attributes (e.g. ``profile``).
        return getattr(self.inner, name)
