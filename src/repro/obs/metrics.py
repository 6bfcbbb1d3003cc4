"""Deterministic metrics: labeled counters, gauges, fixed-bucket histograms.

The observability layer measures the co-simulation the way the paper's
figures need it measured — per-component counts, totals, and latency
distributions — while honouring the repository's determinism contract:

* every value is derived from *simulated* behaviour (cycles, packets,
  steps), never from host wall clock (lint rule DET002 applies here as
  everywhere);
* histogram bucket edges are declared up front (in
  :mod:`repro.obs.declarations`), so two identical runs produce
  byte-identical snapshots — there is no adaptive binning;
* snapshots are plain JSON-able dicts in sorted key/label order, so
  they diff, hash, and merge deterministically.

A mission's :class:`MetricsRegistry` is built once, when the
co-simulation collects the finished flight: the synchronizer, fault
injector and application layer count in plain fields while it flies,
and :meth:`~repro.core.cosim.CoSimulation._collect` publishes those
counts here and snapshots the registry into the mission's
:class:`~repro.obs.recorder.FlightRecord`.  Sweep-level aggregation
merges those snapshots (:mod:`repro.obs.aggregate`); the sweep and
serve registries are written live by their supervisors.

Merge semantics (chosen so shard merges are associative and
commutative): counters and histograms *sum*; gauges also sum — a merged
snapshot is a fleet total, not a last-writer-wins scrape.  Code that
needs a per-mission gauge reads the per-mission record.

Counter values written through :meth:`MetricsRegistry.inc` /
:meth:`MetricsRegistry.advance_to` stay ``int`` end to end: every
golden record stores its obs snapshot, so an ``int`` → ``float``
coercion here would show up as telemetry drift in ``verify --check``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any, Iterable

from repro.errors import ConfigError

#: The supported metric kinds.
KINDS = ("counter", "gauge", "histogram")

_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*$")

_LabelKey = tuple[str, ...]


@dataclass(frozen=True)
class MetricSpec:
    """The declaration of one metric: name, kind, labels, bucket edges.

    Specs are data, not behaviour — the single catalog in
    :mod:`repro.obs.declarations` is the only module that should
    construct them (enforced by lint rule OBS001).
    """

    name: str
    kind: str
    help: str
    labels: tuple[str, ...] = ()
    #: Histogram bucket upper edges, strictly increasing.  Observations
    #: land in the first bucket whose edge is >= the value; values above
    #: the last edge land in the implicit +Inf overflow bucket.
    buckets: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if not _NAME_RE.match(self.name):
            raise ConfigError(f"invalid metric name {self.name!r}")
        if self.kind not in KINDS:
            raise ConfigError(
                f"metric kind must be one of {KINDS}, got {self.kind!r}"
            )
        for label in self.labels:
            if not _NAME_RE.match(label):
                raise ConfigError(f"invalid label name {label!r} on {self.name}")
        if len(set(self.labels)) != len(self.labels):
            raise ConfigError(f"duplicate label names on {self.name}")
        if self.kind == "histogram":
            if not self.buckets:
                raise ConfigError(f"histogram {self.name} needs bucket edges")
            if any(b >= a for b, a in zip(self.buckets, self.buckets[1:])):
                raise ConfigError(
                    f"histogram {self.name} bucket edges must be strictly increasing"
                )
        elif self.buckets:
            raise ConfigError(f"{self.kind} {self.name} must not declare buckets")


@dataclass
class _HistogramState:
    """Per-series histogram accumulator (len(buckets)+1 counts)."""

    counts: list[int]
    sum: float = 0
    count: int = 0


class MetricsRegistry:
    """A set of declared metrics plus their per-label-set series.

    All mutation goes through :meth:`inc`, :meth:`set`, :meth:`observe`,
    and :meth:`advance_to`; reads through
    :meth:`value`, :meth:`total`, and :meth:`snapshot`.  Using an
    undeclared metric name, the wrong kind, or the wrong label set raises
    :class:`~repro.errors.ConfigError` — metrics are a typed surface,
    not a free-form dict.
    """

    def __init__(self, specs: Iterable[MetricSpec] = ()) -> None:
        self._specs: dict[str, MetricSpec] = {}
        # Counter/gauge series and histogram series live in separate
        # maps so values stay precisely typed (counters must remain int).
        self._scalars: dict[str, dict[_LabelKey, int | float]] = {}
        self._histograms: dict[str, dict[_LabelKey, _HistogramState]] = {}
        for spec in specs:
            self.register(spec)

    # -- declaration ----------------------------------------------------
    def register(self, spec: MetricSpec) -> None:
        if spec.name in self._specs:
            raise ConfigError(f"metric {spec.name!r} is already registered")
        self._specs[spec.name] = spec
        if spec.kind == "histogram":
            self._histograms[spec.name] = {}
        else:
            self._scalars[spec.name] = {}

    def spec(self, name: str) -> MetricSpec:
        try:
            return self._specs[name]
        except KeyError:
            raise ConfigError(f"unregistered metric {name!r}") from None

    def names(self) -> list[str]:
        return sorted(self._specs)

    def _key(self, spec: MetricSpec, labels: dict[str, str]) -> _LabelKey:
        declared = spec.labels
        if not labels and not declared:
            return ()  # fast path: most mission series are unlabelled
        n = len(labels)
        if n == len(declared):
            # Equal-length dicts with every declared label present carry
            # exactly the declared label set — no set comparison needed.
            # One- and two-label metrics cover the busiest writer (a
            # mission's collect step: one latency observation per
            # inference), so they skip the generator machinery.
            try:
                if n == 1:
                    return (str(labels[declared[0]]),)
                if n == 2:
                    return (str(labels[declared[0]]), str(labels[declared[1]]))
                return tuple(str(labels[label]) for label in declared)
            except KeyError:
                pass
        raise ConfigError(
            f"{spec.name} takes labels {list(spec.labels)}, got {sorted(labels)}"
        )

    def _expect(self, name: str, kind: str) -> MetricSpec:
        spec = self.spec(name)
        if spec.kind != kind:
            raise ConfigError(f"{name} is a {spec.kind}, not a {kind}")
        return spec

    # -- writes ---------------------------------------------------------
    def inc(self, name: str, amount: int = 1, **labels: str) -> None:
        """Add ``amount`` (>= 0) to a counter series."""
        spec = self._expect(name, "counter")
        if amount < 0:
            raise ConfigError(f"counter {name} cannot decrease (inc {amount})")
        key = self._key(spec, labels)
        series = self._scalars[name]
        series[key] = series.get(key, 0) + amount

    def advance_to(self, name: str, total: int, **labels: str) -> None:
        """Raise a counter series to an absolute (monotonic) total.

        How a component's plain count is published: the mission's
        collect step writes each total a component counted while the
        mission flew.  The series jumps to ``total`` (written even at 0),
        and a total below the series' current value is rejected loudly.
        """
        spec = self._expect(name, "counter")
        key = self._key(spec, labels)
        series = self._scalars[name]
        current = series.get(key, 0)
        if total < current:
            raise ConfigError(
                f"counter {name} cannot decrease ({current} -> {total})"
            )
        series[key] = total

    def set(self, name: str, value: float, **labels: str) -> None:
        """Set a gauge series to ``value``."""
        spec = self._expect(name, "gauge")
        self._scalars[name][self._key(spec, labels)] = value

    def observe(self, name: str, value: float, count: int = 1, **labels: str) -> None:
        """Record ``count`` observations of ``value`` into a histogram."""
        spec = self._expect(name, "histogram")
        if count < 0:
            raise ConfigError(f"histogram {name} observation count must be >= 0")
        if count == 0:
            return
        key = self._key(spec, labels)
        series = self._histograms[name]
        state = series.get(key)
        if state is None:
            state = _HistogramState(counts=[0] * (len(spec.buckets) + 1))
            series[key] = state
        index = len(spec.buckets)  # +Inf overflow by default
        for i, edge in enumerate(spec.buckets):
            if value <= edge:
                index = i
                break
        state.counts[index] += count
        state.sum += value * count
        state.count += count

    # -- reads ----------------------------------------------------------
    def value(self, name: str, **labels: str) -> int | float:
        """One counter/gauge series' value (0 if never written)."""
        spec = self.spec(name)
        if spec.kind == "histogram":
            raise ConfigError(f"{name} is a histogram; read it via snapshot()")
        return self._scalars[name].get(self._key(spec, labels), 0)

    def total(self, name: str) -> int | float:
        """Sum across every series (histograms: total observation count)."""
        spec = self.spec(name)
        if spec.kind == "histogram":
            return sum(state.count for state in self._histograms[name].values())
        return sum(self._scalars[name].values())

    def series_count(self, name: str) -> int:
        spec = self.spec(name)
        if spec.kind == "histogram":
            return len(self._histograms[name])
        return len(self._scalars[name])

    # -- snapshot -------------------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        """Every declared metric as a sorted, JSON-able dict.

        Metrics that were never written appear with an empty series
        list — the coverage check reads exactly that distinction.
        """
        out: dict[str, Any] = {}
        for name in sorted(self._specs):
            spec = self._specs[name]
            entry: dict[str, Any] = {
                "kind": spec.kind,
                "labels": list(spec.labels),
            }
            rows: list[dict[str, Any]] = []
            if spec.kind == "histogram":
                entry["buckets"] = list(spec.buckets)
                for key in sorted(self._histograms[name]):
                    state = self._histograms[name][key]
                    rows.append(
                        {
                            "labels": dict(zip(spec.labels, key)),
                            "buckets": list(state.counts),
                            "sum": state.sum,
                            "count": state.count,
                        }
                    )
            else:
                for key in sorted(self._scalars[name]):
                    rows.append(
                        {
                            "labels": dict(zip(spec.labels, key)),
                            "value": self._scalars[name][key],
                        }
                    )
            entry["series"] = rows
            out[name] = entry
        return out


def exercised_metrics(snapshot: dict[str, Any]) -> set[str]:
    """Metric names with at least one recorded series in ``snapshot``."""
    return {name for name, entry in snapshot.items() if entry.get("series")}
