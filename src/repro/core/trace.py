"""Simulation tracing with Chrome-trace export.

Records the co-simulation's orchestration timeline — synchronization
steps, packet dispatches, sensor servicing — against *simulated* time, and
exports the standard Chrome trace-event JSON (load in ``chrome://tracing``
or Perfetto) for visual inspection of the lockstep schedule.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field


@dataclass(frozen=True)
class TraceEvent:
    """One trace event; durations and timestamps in simulated seconds."""

    name: str
    category: str
    start_s: float
    duration_s: float = 0.0
    track: str = "synchronizer"
    args: dict[str, object] = field(default_factory=dict)

    @property
    def instant(self) -> bool:
        return self.duration_s == 0.0


class Tracer:
    """Append-only event recorder (pass no tracer to record nothing)."""

    def __init__(self) -> None:
        self.events: list[TraceEvent] = []

    def instant(
        self,
        name: str,
        category: str,
        at_s: float,
        track: str = "synchronizer",
        **args: object,
    ) -> None:
        self.events.append(
            TraceEvent(name=name, category=category, start_s=at_s, track=track, args=args)
        )

    def span(
        self,
        name: str,
        category: str,
        start_s: float,
        duration_s: float,
        track: str = "synchronizer",
        **args: object,
    ) -> None:
        self.events.append(
            TraceEvent(
                name=name,
                category=category,
                start_s=start_s,
                duration_s=duration_s,
                track=track,
                args=args,
            )
        )

    def __len__(self) -> int:
        return len(self.events)

    def by_category(self, category: str) -> list[TraceEvent]:
        return [e for e in self.events if e.category == category]

    # ------------------------------------------------------------------
    def to_chrome_trace(self) -> str:
        """Chrome trace-event JSON (timestamps in microseconds)."""
        tracks = sorted({e.track for e in self.events})
        tid = {track: i + 1 for i, track in enumerate(tracks)}
        records = [
            {
                "name": f"track:{track}",
                "ph": "M",
                "pid": 1,
                "tid": tid[track],
                "cat": "__metadata",
                "args": {"name": track},
                "ts": 0,
            }
            for track in tracks
        ]
        for event in self.events:
            record = {
                "name": event.name,
                "cat": event.category,
                "pid": 1,
                "tid": tid[event.track],
                "ts": event.start_s * 1e6,
                "args": event.args,
            }
            if event.instant:
                record["ph"] = "i"
                record["s"] = "t"
            else:
                record["ph"] = "X"
                record["dur"] = event.duration_s * 1e6
            records.append(record)
        return json.dumps({"traceEvents": records, "displayTimeUnit": "ms"})

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            handle.write(self.to_chrome_trace())
