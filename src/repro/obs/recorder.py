"""Flight recorder: one ``rose-obs/1`` artifact per mission.

A :class:`FlightRecord` merges three views of a mission into a single
JSON document:

* the deterministic metrics snapshot (bit-identical across reruns),
* the wall-clock :class:`~repro.core.timing.StageTimer` breakdown
  (host-dependent, excluded from the deterministic view),
* a summary of the :class:`~repro.core.trace.Tracer` event stream
  (event counts per category; present only when a tracer was attached).

The artifact is attached to ``MissionResult.obs`` and — being a plain
picklable dataclass — rides through the sweep result cache for free, so
cache hits reconstitute their telemetry without re-running anything.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

from repro.errors import ConfigError

#: Artifact format tag; bump on breaking schema changes.
OBS_FORMAT = "rose-obs/1"


@dataclass
class FlightRecord:
    """The per-mission observability artifact."""

    label: str
    config_key: str
    metrics: dict[str, Any]
    #: Wall-clock stage breakdown (env_step/soc_step/sync_overhead/
    #: inference) — informational only, never compared.
    stage_timings: dict[str, float] = field(default_factory=dict)
    #: Trace summary: {"events": N, "by_category": {...}} or None when
    #: no tracer was attached.
    trace: dict[str, Any] | None = None

    def to_dict(self) -> dict[str, Any]:
        data: dict[str, Any] = {
            "format": OBS_FORMAT,
            "label": self.label,
            "config_key": self.config_key,
            "metrics": self.metrics,
            "stage_timings": self.stage_timings,
        }
        if self.trace is not None:
            data["trace"] = self.trace
        return data

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def deterministic_view(self) -> dict[str, Any]:
        """The part of the artifact that must be bit-identical across
        reruns of the same config: everything but the stage timings,
        which are host wall clock, and the trace summary, which exists
        only when a tracer was attached (its counts are simulated and
        deterministic)."""
        return {
            "format": OBS_FORMAT,
            "label": self.label,
            "config_key": self.config_key,
            "metrics": self.metrics,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "FlightRecord":
        fmt = data.get("format")
        if fmt != OBS_FORMAT:
            raise ConfigError(
                f"unsupported obs artifact format {fmt!r} (expected {OBS_FORMAT})"
            )
        return cls(
            label=str(data["label"]),
            config_key=str(data["config_key"]),
            metrics=dict(data["metrics"]),
            stage_timings=dict(data.get("stage_timings", {})),
            trace=data.get("trace"),
        )

    @classmethod
    def from_json(cls, text: str) -> "FlightRecord":
        return cls.from_dict(json.loads(text))


def trace_summary(events: list[Any]) -> dict[str, Any]:
    """Summarise Tracer events as counts: the total and the number per
    category.  Event times are simulated seconds, as deterministic as the
    counts; the summary keeps only the counts."""
    by_category: dict[str, int] = {}
    for event in events:
        category = str(getattr(event, "category", "unknown"))
        by_category[category] = by_category.get(category, 0) + 1
    return {
        "events": len(events),
        "by_category": dict(sorted(by_category.items())),
    }
