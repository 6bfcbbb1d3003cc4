"""Injected clocks: the service's only doorway to wall time.

Every serve-side component (scheduler leases, worker heartbeats, the
tick loop) reads time through a :class:`Clock` handed to it at
construction.  That single seam is what makes the end-to-end service
test harness deterministic: tests install a :class:`FakeClock`, advance
it explicitly past lease deadlines, and drive scheduler ticks by hand —
no real sleeping, no flaky timing margins.

Lint rule SRV001 pins the discipline: this module is the only file
under ``repro/serve/`` allowed to read host time (``time.*``,
``datetime.now``) or sleep directly.
"""

from __future__ import annotations

import time
from typing import Protocol


class Clock(Protocol):
    """What the service needs from a clock: monotonic now, and sleep."""

    def now(self) -> float:
        """Seconds on a monotonic axis (not an epoch timestamp)."""
        ...

    def sleep(self, seconds: float) -> None:
        """Park the caller for ``seconds`` (fake clocks just advance)."""
        ...


class SystemClock:
    """The real thing: monotonic reads, real sleeps (production serving)."""

    def now(self) -> float:
        return time.monotonic()

    def sleep(self, seconds: float) -> None:
        if seconds > 0:
            time.sleep(seconds)


class FakeClock:
    """A hand-cranked clock for the deterministic service harness.

    ``sleep`` advances instead of blocking, so code written against the
    :class:`Clock` protocol runs at full speed under test while still
    observing the passage of (virtual) time — lease expiry, heartbeat
    staleness, scheduler tick cadence.
    """

    def __init__(self, start: float = 1_000.0):
        self._now = float(start)

    def now(self) -> float:
        return self._now

    def advance(self, seconds: float) -> float:
        """Move the clock forward; returns the new time."""
        if seconds < 0:
            raise ValueError(f"cannot advance a clock backwards ({seconds})")
        self._now += seconds
        return self._now

    def sleep(self, seconds: float) -> None:
        self.advance(max(0.0, seconds))
