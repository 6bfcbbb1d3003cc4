"""repro.obs — unified observability: metrics, flight recorder, exporters.

See DESIGN.md §9 for the metric catalog, determinism rules, and the
``rose-obs/1`` artifact schema.
"""

from repro.obs.aggregate import merge_snapshots
from repro.obs.declarations import (
    COVERAGE_EXEMPT,
    DECLARED_METRICS,
    MISSION_METRICS,
    SERVE_METRICS,
    SWEEP_METRICS,
    mission_registry,
    serve_registry,
    spec_for,
    sweep_registry,
)
from repro.obs.export import parse_prometheus, to_prometheus
from repro.obs.metrics import MetricSpec, MetricsRegistry, exercised_metrics
from repro.obs.recorder import OBS_FORMAT, FlightRecord, trace_summary
from repro.obs.schema import validate_artifact

__all__ = [
    "COVERAGE_EXEMPT",
    "DECLARED_METRICS",
    "FlightRecord",
    "MISSION_METRICS",
    "MetricSpec",
    "MetricsRegistry",
    "OBS_FORMAT",
    "SERVE_METRICS",
    "SWEEP_METRICS",
    "exercised_metrics",
    "merge_snapshots",
    "mission_registry",
    "serve_registry",
    "sweep_registry",
    "parse_prometheus",
    "spec_for",
    "to_prometheus",
    "trace_summary",
    "validate_artifact",
]
