"""Tests for the repro.obs observability layer.

Covers the metrics registry semantics, the declarations catalog, the
flight recorder, exporters and artifact validation, snapshot merging,
the stats fields a mission publishes, sweep-level telemetry aggregation
(parallel == serial, cache hits reconstitute their telemetry), and the
``obs`` CLI.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.core.config import CoSimConfig
from repro.core.cosim import CoSimulation, run_mission
from repro.core.faults import FaultPlan
from repro.core.packets import PacketType
from repro.core.synchronizer import SyncStats
from repro.errors import ConfigError
from repro.obs import (
    COVERAGE_EXEMPT,
    DECLARED_METRICS,
    FlightRecord,
    MetricSpec,
    MetricsRegistry,
    OBS_FORMAT,
    exercised_metrics,
    merge_snapshots,
    mission_registry,
    parse_prometheus,
    spec_for,
    to_prometheus,
    trace_summary,
    validate_artifact,
)
from repro.sweep.cache import ResultCache
from repro.sweep.runner import SweepRunner


def tiny_config(**overrides) -> CoSimConfig:
    base = dict(
        world="tunnel", soc="A", model="resnet6", max_sim_time=1.0
    )
    base.update(overrides)
    return CoSimConfig(**base)


@pytest.fixture(scope="module")
def faulty_result():
    """One short faulty mission, shared across the integration tests."""
    return run_mission(
        tiny_config(seed=5, faults=FaultPlan.sensor_response_drop(0.2, seed=3))
    )


# ---------------------------------------------------------------------------
# MetricSpec validation
# ---------------------------------------------------------------------------
class TestMetricSpec:
    def test_valid_spec(self):
        spec = MetricSpec("rose_x_total", "counter", "help", labels=("kind",))
        assert spec.labels == ("kind",)

    def test_bad_name_rejected(self):
        with pytest.raises(ConfigError):
            MetricSpec("Rose-X", "counter", "help")

    def test_bad_kind_rejected(self):
        with pytest.raises(ConfigError):
            MetricSpec("rose_x", "timer", "help")

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ConfigError):
            MetricSpec("rose_x", "counter", "help", labels=("a", "a"))

    def test_histogram_needs_buckets(self):
        with pytest.raises(ConfigError):
            MetricSpec("rose_h", "histogram", "help")

    def test_histogram_buckets_strictly_increasing(self):
        with pytest.raises(ConfigError):
            MetricSpec("rose_h", "histogram", "help", buckets=(1.0, 1.0, 2.0))

    def test_counter_must_not_declare_buckets(self):
        with pytest.raises(ConfigError):
            MetricSpec("rose_x", "counter", "help", buckets=(1.0,))


# ---------------------------------------------------------------------------
# MetricsRegistry semantics
# ---------------------------------------------------------------------------
def small_registry() -> MetricsRegistry:
    return MetricsRegistry(
        [
            MetricSpec("rose_ops_total", "counter", "ops", labels=("kind",)),
            MetricSpec("rose_level", "gauge", "level"),
            MetricSpec(
                "rose_latency", "histogram", "latency", buckets=(1.0, 10.0, 100.0)
            ),
        ]
    )


class TestRegistry:
    def test_counter_inc_and_value(self):
        reg = small_registry()
        reg.inc("rose_ops_total", kind="a")
        reg.inc("rose_ops_total", 2, kind="a")
        reg.inc("rose_ops_total", kind="b")
        assert reg.value("rose_ops_total", kind="a") == 3
        assert reg.total("rose_ops_total") == 4

    def test_counter_values_stay_int(self):
        # fault_summary() feeds the canonical payload; int -> float here
        # would change every golden signature.
        reg = small_registry()
        reg.inc("rose_ops_total", kind="a")
        value = reg.value("rose_ops_total", kind="a")
        assert type(value) is int
        row = reg.snapshot()["rose_ops_total"]["series"][0]
        assert type(row["value"]) is int

    def test_counter_negative_inc_rejected(self):
        with pytest.raises(ConfigError):
            small_registry().inc("rose_ops_total", -1, kind="a")

    def test_advance_to_is_monotonic(self):
        reg = small_registry()
        reg.advance_to("rose_ops_total", 5, kind="a")
        reg.advance_to("rose_ops_total", 5, kind="a")  # no-op is fine
        reg.advance_to("rose_ops_total", 9, kind="a")
        assert reg.value("rose_ops_total", kind="a") == 9
        with pytest.raises(ConfigError):
            reg.advance_to("rose_ops_total", 3, kind="a")

    def test_gauge_set_overwrites(self):
        reg = small_registry()
        reg.set("rose_level", 2.5)
        reg.set("rose_level", 1.25)
        assert reg.value("rose_level") == 1.25

    def test_histogram_bucket_boundaries(self):
        reg = small_registry()
        # A value exactly on an edge lands in that edge's bucket.
        reg.observe("rose_latency", 1.0)
        reg.observe("rose_latency", 5.0)
        reg.observe("rose_latency", 1000.0)  # above the last edge: overflow
        row = reg.snapshot()["rose_latency"]["series"][0]
        assert row["buckets"] == [1, 1, 0, 1]
        assert row["count"] == 3
        assert row["sum"] == pytest.approx(1006.0)

    def test_histogram_weighted_observation(self):
        reg = small_registry()
        reg.observe("rose_latency", 5.0, count=4)
        reg.observe("rose_latency", 5.0, count=0)  # no-op
        row = reg.snapshot()["rose_latency"]["series"][0]
        assert row["count"] == 4
        assert row["sum"] == pytest.approx(20.0)
        assert reg.total("rose_latency") == 4

    def test_kind_mismatch_rejected(self):
        reg = small_registry()
        with pytest.raises(ConfigError):
            reg.inc("rose_level")
        with pytest.raises(ConfigError):
            reg.set("rose_ops_total", 1, kind="a")
        with pytest.raises(ConfigError):
            reg.observe("rose_ops_total", 1, kind="a")
        with pytest.raises(ConfigError):
            reg.value("rose_latency")

    def test_unregistered_name_rejected(self):
        with pytest.raises(ConfigError):
            small_registry().inc("rose_nope_total")

    def test_wrong_label_set_rejected(self):
        reg = small_registry()
        with pytest.raises(ConfigError):
            reg.inc("rose_ops_total")  # missing the kind label
        with pytest.raises(ConfigError):
            reg.inc("rose_ops_total", kind="a", extra="b")

    def test_duplicate_registration_rejected(self):
        reg = small_registry()
        with pytest.raises(ConfigError):
            reg.register(MetricSpec("rose_level", "gauge", "again"))

    def test_unwritten_series_reads_zero(self):
        reg = small_registry()
        assert reg.value("rose_ops_total", kind="never") == 0
        assert reg.series_count("rose_ops_total") == 0

    def test_snapshot_sorted_and_complete(self):
        reg = small_registry()
        reg.inc("rose_ops_total", kind="b")
        reg.inc("rose_ops_total", kind="a")
        snap = reg.snapshot()
        assert list(snap) == sorted(snap)
        # Unwritten metrics appear with empty series (coverage reads this).
        assert snap["rose_level"]["series"] == []
        kinds = [row["labels"]["kind"] for row in snap["rose_ops_total"]["series"]]
        assert kinds == ["a", "b"]
        assert exercised_metrics(snap) == {"rose_ops_total"}

    def test_snapshot_is_json_stable(self):
        reg = small_registry()
        reg.inc("rose_ops_total", kind="a")
        reg.observe("rose_latency", 2.0)
        a = json.dumps(reg.snapshot(), sort_keys=True)
        b = json.dumps(reg.snapshot(), sort_keys=True)
        assert a == b


# ---------------------------------------------------------------------------
# Declarations catalog
# ---------------------------------------------------------------------------
class TestDeclarations:
    def test_mission_registry_covers_mission_catalog(self):
        from repro.obs import MISSION_METRICS

        reg = mission_registry()
        assert set(reg.names()) == {spec.name for spec in MISSION_METRICS}

    def test_sweep_registry_covers_sweep_catalog(self):
        from repro.obs import SWEEP_METRICS, sweep_registry

        reg = sweep_registry()
        assert set(reg.names()) == {spec.name for spec in SWEEP_METRICS}
        # Disjoint catalogs: a sweep metric can never leak into a mission
        # snapshot (which the golden corpus hashes byte-for-byte).
        assert not set(reg.names()) & set(mission_registry().names())

    def test_declared_is_mission_plus_sweep_plus_serve(self):
        from repro.obs import MISSION_METRICS, SERVE_METRICS, SWEEP_METRICS

        assert DECLARED_METRICS == MISSION_METRICS + SWEEP_METRICS + SERVE_METRICS

    def test_serve_registry_covers_serve_catalog(self):
        from repro.obs import SERVE_METRICS, serve_registry

        reg = serve_registry()
        assert set(reg.names()) == {spec.name for spec in SERVE_METRICS}
        # Same disjointness contract as sweep metrics: service ops series
        # must never leak into mission or sweep snapshots.
        assert not set(reg.names()) & set(mission_registry().names())

    def test_spec_for(self):
        assert spec_for("rose_sync_steps_total") is not None
        assert spec_for("rose_nope") is None

    def test_exemptions_are_declared(self):
        declared = {spec.name for spec in DECLARED_METRICS}
        assert COVERAGE_EXEMPT <= declared


# ---------------------------------------------------------------------------
# Flight recorder
# ---------------------------------------------------------------------------
class TestFlightRecord:
    def record(self) -> FlightRecord:
        reg = small_registry()
        reg.inc("rose_ops_total", kind="a")
        return FlightRecord(
            label="demo",
            config_key="abc123",
            metrics=reg.snapshot(),
            stage_timings={"env_step": 0.5},
            trace={"events": 2, "by_category": {"sync": 2}},
        )

    def test_json_round_trip(self):
        record = self.record()
        back = FlightRecord.from_json(record.to_json())
        assert back == record

    def test_wrong_format_rejected(self):
        data = self.record().to_dict()
        data["format"] = "rose-obs/999"
        with pytest.raises(ConfigError):
            FlightRecord.from_dict(data)

    def test_deterministic_view_excludes_host_fields(self):
        view = self.record().deterministic_view()
        assert view["format"] == OBS_FORMAT
        assert "stage_timings" not in view
        assert "trace" not in view

    def test_trace_summary_counts_only(self):
        class Event:
            def __init__(self, category):
                self.category = category

        summary = trace_summary([Event("sync"), Event("sync"), Event("env")])
        assert summary == {"events": 3, "by_category": {"env": 1, "sync": 2}}


# ---------------------------------------------------------------------------
# Exporters
# ---------------------------------------------------------------------------
class TestPrometheus:
    def test_counter_round_trip(self):
        reg = small_registry()
        reg.inc("rose_ops_total", 3, kind="a")
        reg.inc("rose_ops_total", 1, kind="b")
        text = to_prometheus(reg.snapshot())
        assert "# TYPE rose_ops_total counter" in text
        assert 'rose_ops_total{kind="a"} 3' in text
        back = parse_prometheus(text)
        assert back["rose_ops_total"]["series"] == [
            {"labels": {"kind": "a"}, "value": 3},
            {"labels": {"kind": "b"}, "value": 1},
        ]

    def test_histogram_cumulative_and_back(self):
        reg = small_registry()
        reg.observe("rose_latency", 0.5)
        reg.observe("rose_latency", 5.0, count=2)
        reg.observe("rose_latency", 500.0)
        text = to_prometheus(reg.snapshot())
        assert 'rose_latency_bucket{le="10.0"} 3' in text
        assert 'rose_latency_bucket{le="+Inf"} 4' in text
        back = parse_prometheus(text)
        row = back["rose_latency"]["series"][0]
        assert row["buckets"] == [1, 2, 0, 1]
        assert row["count"] == 4
        assert back["rose_latency"]["buckets"] == [1.0, 10.0, 100.0]

    def test_label_escaping_round_trip(self):
        reg = MetricsRegistry(
            [MetricSpec("rose_x_total", "counter", "x", labels=("actor",))]
        )
        tricky = 'he said "hi\\there"\nbye'
        reg.inc("rose_x_total", actor=tricky)
        back = parse_prometheus(to_prometheus(reg.snapshot()))
        assert back["rose_x_total"]["series"][0]["labels"]["actor"] == tricky

    def test_help_line_from_catalog(self):
        reg = mission_registry()
        reg.inc("rose_sync_steps_total")
        text = to_prometheus(reg.snapshot())
        assert text.startswith("# HELP rose_sync_steps_total ")

    def test_sample_without_type_rejected(self):
        with pytest.raises(ConfigError):
            parse_prometheus("rose_mystery_total 3\n")

    def test_empty_snapshot_renders_empty(self):
        assert to_prometheus(small_registry().snapshot()) == ""
        assert parse_prometheus("") == {}


# ---------------------------------------------------------------------------
# Merging
# ---------------------------------------------------------------------------
class TestMergeSnapshots:
    def test_counters_and_histograms_sum(self):
        a, b = small_registry(), small_registry()
        a.inc("rose_ops_total", 2, kind="x")
        b.inc("rose_ops_total", 3, kind="x")
        b.inc("rose_ops_total", 1, kind="y")
        a.observe("rose_latency", 5.0)
        b.observe("rose_latency", 50.0)
        merged = merge_snapshots([a.snapshot(), b.snapshot()])
        values = {
            row["labels"]["kind"]: row["value"]
            for row in merged["rose_ops_total"]["series"]
        }
        assert values == {"x": 5, "y": 1}
        row = merged["rose_latency"]["series"][0]
        assert row["buckets"] == [0, 1, 1, 0]
        assert row["count"] == 2

    def test_empty_merge(self):
        assert merge_snapshots([]) == {}

    def test_kind_mismatch_rejected(self):
        a = {"rose_x": {"kind": "counter", "labels": [], "series": []}}
        b = {"rose_x": {"kind": "gauge", "labels": [], "series": []}}
        with pytest.raises(ConfigError):
            merge_snapshots([a, b])

    def test_merge_keeps_unexercised_metrics(self):
        a, b = small_registry(), small_registry()
        a.inc("rose_ops_total", kind="x")
        merged = merge_snapshots([a.snapshot(), b.snapshot()])
        assert merged["rose_level"]["series"] == []


# ---------------------------------------------------------------------------
# Schema validation (both paths)
# ---------------------------------------------------------------------------
class TestSchema:
    def artifact(self) -> dict:
        reg = small_registry()
        reg.inc("rose_ops_total", kind="a")
        reg.observe("rose_latency", 5.0)
        return FlightRecord(
            label="m", config_key="k", metrics=reg.snapshot()
        ).to_dict()

    def test_valid_artifact(self):
        assert validate_artifact(self.artifact()) == []

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda data: data.update(format="rose-obs/999"),
            lambda data: data.pop("config_key"),
            lambda data: data["metrics"]["rose_latency"]["series"][0].pop(
                "buckets"
            ),
            lambda data: data["metrics"]["rose_ops_total"]["series"][0].update(
                value="three"
            ),
            lambda data: data.update(extra=1),
            lambda data: data.update(trace={"events": 1}),
            lambda data: data.update(
                trace={"events": 1, "by_category": {}, "extra": 0}
            ),
            lambda data: data.update(trace={"events": -1, "by_category": {}}),
            lambda data: data.update(trace={"events": 1, "by_category": {"a": 1.5}}),
            lambda data: data["metrics"]["rose_level"].update(labels=[1]),
            lambda data: data["metrics"]["rose_ops_total"]["series"][0].update(
                labels={"kind": 1}
            ),
            lambda data: data["metrics"]["rose_latency"]["series"][0].update(
                count=-1
            ),
            lambda data: data["metrics"]["rose_latency"].update(
                buckets=["1", 10.0, 100.0]
            ),
            lambda data: data["metrics"]["rose_ops_total"]["series"][0].update(
                value=True
            ),
        ],
    )
    def test_invalid_artifacts_flagged_by_both_paths(self, mutate):
        data = self.artifact()
        mutate(data)
        assert validate_artifact(json.loads(json.dumps(data))) != []

    def test_label_name_mismatch_is_structural(self):
        # The two cross-field rules: row labels match the declared label
        # names, and a histogram row carries len(edges)+1 bucket counts.
        data = self.artifact()
        data["metrics"]["rose_ops_total"]["series"][0]["labels"]["extra"] = "x"
        data["metrics"]["rose_latency"]["series"][0]["buckets"].pop()
        errors = validate_artifact(data)
        assert any("label names" in error for error in errors)
        assert any("bucket counts" in error for error in errors)

    def test_non_object_rejected(self):
        assert validate_artifact([1, 2]) == ["artifact is not a JSON object"]


# ---------------------------------------------------------------------------
# Stats fields, as the mission's snapshot publishes them
# ---------------------------------------------------------------------------
def published(cosim: CoSimulation) -> dict:
    """The obs snapshot ``cosim`` publishes when it collects its result."""
    return cosim.finish(None).obs.metrics


def series_value(snap: dict, name: str, **labels: str):
    """One series' value (a histogram row's dict), or None if absent."""
    for row in snap[name]["series"]:
        if row["labels"] == labels:
            return row.get("value", row)
    return None


class TestStatsViews:
    """The stats dataclasses count in plain fields; collecting a mission
    publishes each non-zero count as its series."""

    def test_sync_stats_views_read_registry(self):
        cosim = CoSimulation(tiny_config(faults=FaultPlan()))
        stats = cosim.synchronizer.stats
        # Wire faults are counted by the injector alone; collecting the
        # mission copies its totals into the stats and the registry.
        cosim.fault_injector.injected[("drop", PacketType.IMU_RESP)] = 2
        stats.sync_regrants += 1
        snap = published(cosim)
        assert stats.packets_dropped == 2
        assert series_value(snap, "rose_link_faults_total", kind="drop") == 2
        assert series_value(snap, "rose_link_faults_total", kind="delay") == 0
        assert series_value(snap, "rose_sync_regrants_total") == 1
        assert series_value(snap, "rose_sync_done_total", result="stale") is None

    def test_fault_summary_reads_views(self):
        stats = SyncStats()
        stats.packets_corrupted += 1
        stats.sensor_faults += 2
        summary = stats.fault_summary()
        assert summary["packets_corrupted"] == 1
        assert summary["sensor_faults"] == 2
        assert all(type(v) is int for v in summary.values())

    def test_app_stats_views(self):
        cosim = CoSimulation(tiny_config())
        stats = cosim.app_stats
        stats.sensor_timeouts += 1
        stats.stale_frames_reused += 1
        stats.deadline_checks["true"] = 3
        stats.deadline_misses += 1
        snap = published(cosim)
        assert series_value(snap, "rose_app_sensor_timeouts_total") == 1
        assert series_value(snap, "rose_app_stale_frames_total") == 1
        assert series_value(snap, "rose_app_sensor_retries_total") is None
        assert series_value(snap, "rose_app_deadline_checks_total", at_risk="true") == 3
        assert series_value(snap, "rose_app_deadline_checks_total", at_risk="false") is None
        assert series_value(snap, "rose_app_deadline_misses_total") == 1

    def test_app_stats_record_feeds_metrics(self):
        cosim = CoSimulation(tiny_config())
        stats = cosim.app_stats
        stats.record(100, 300, "resnet6")
        stats.record(100, 500, "resnet6")
        assert stats.inference_count == 2
        snap = published(cosim)
        assert series_value(snap, "rose_app_inferences_total", model="resnet6") == 2
        row = series_value(snap, "rose_app_inference_latency_cycles", model="resnet6")
        assert row["count"] == 2
        assert row["sum"] == 600 and type(row["sum"]) is int

    def test_fusion_stats_views(self):
        cosim = CoSimulation(tiny_config(controller="fusion"))
        stats = cosim.fusion_stats
        stats.imu_timeouts += 2
        stats.camera_timeouts += 1
        stats.sensor_retries += 3
        snap = published(cosim)
        assert stats.imu_timeouts == 2
        assert series_value(snap, "rose_fusion_sensor_timeouts_total", sensor="imu") == 2
        assert series_value(snap, "rose_fusion_sensor_timeouts_total", sensor="camera") == 1
        assert series_value(snap, "rose_fusion_sensor_retries_total") == 3


# ---------------------------------------------------------------------------
# Mission integration
# ---------------------------------------------------------------------------
class TestMissionObs:
    def test_flight_record_attached_and_valid(self, faulty_result):
        record = faulty_result.obs
        assert record is not None
        assert validate_artifact(record.to_dict()) == []
        assert record.config_key
        assert record.stage_timings  # wall-clock stages present

    def test_metrics_agree_with_result(self, faulty_result):
        snap = faulty_result.obs.metrics
        total = sum(
            row["value"] for row in snap["rose_soc_cycles_total"]["series"]
        )
        assert total == faulty_result.soc_cycles
        inferences = sum(
            row["value"] for row in snap["rose_app_inferences_total"]["series"]
        )
        assert inferences == faulty_result.inference_count
        steps = sum(
            row["value"] for row in snap["rose_sync_steps_total"]["series"]
        )
        assert steps == faulty_result.sync_stats.steps

    def test_fault_metrics_recorded(self, faulty_result):
        snap = faulty_result.obs.metrics
        dropped = sum(
            row["value"]
            for row in snap["rose_link_faults_total"]["series"]
            if row["labels"]["kind"] == "drop"
        )
        assert dropped == faulty_result.sync_stats.packets_dropped
        assert dropped > 0  # the plan really injected faults
        injected = sum(
            row["value"]
            for row in snap["rose_faults_injected_total"]["series"]
            if row["labels"]["kind"] == "drop"
        )
        assert injected == dropped

    def test_obs_is_deterministic(self, faulty_result):
        again = run_mission(
            tiny_config(seed=5, faults=FaultPlan.sensor_response_drop(0.2, seed=3))
        )
        assert (
            again.obs.deterministic_view()
            == faulty_result.obs.deterministic_view()
        )


# ---------------------------------------------------------------------------
# Sweep-level aggregation
# ---------------------------------------------------------------------------
class TestSweepTelemetry:
    def configs(self):
        return [(f"seed{s}", tiny_config(seed=s)) for s in (0, 1, 2)]

    def test_parallel_equals_serial(self):
        serial = SweepRunner(workers=1).run(self.configs()).telemetry()
        parallel = SweepRunner(workers=2).run(self.configs()).telemetry()
        assert parallel == serial

    def test_cache_hits_reconstitute_telemetry(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        first = SweepRunner(workers=1, cache=cache).run(self.configs())
        assert not any(o.from_cache for o in first.outcomes)
        cache2 = ResultCache(tmp_path / "cache")
        second = SweepRunner(workers=1, cache=cache2).run(self.configs())
        assert all(o.from_cache for o in second.outcomes)
        assert second.telemetry() == first.telemetry()

    def test_telemetry_matches_manual_merge(self):
        from repro.obs import sweep_registry

        report = SweepRunner(workers=1).run(self.configs())
        mission_part = [o.result.obs.metrics for o in report.outcomes]
        # telemetry() additionally folds in the sweep-supervisor snapshot;
        # on a fault-free run that snapshot is all empty series, so the
        # merge equals the mission merge plus a fresh sweep registry.
        manual = merge_snapshots(mission_part + [sweep_registry().snapshot()])
        assert report.telemetry() == manual
        mission_only = merge_snapshots(mission_part)
        for name, entry in mission_only.items():
            assert report.telemetry()[name] == entry


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------
class TestCliObs:
    def test_list(self, capsys):
        assert main(["obs", "--list"]) == 0
        out = capsys.readouterr().out
        assert "obs-healthy" in out
        assert "tunnel-dnn-r14-socA" in out
        assert "declared metric(s)" in out

    def test_mission_validate_diff_summarize(self, capsys, tmp_path):
        # obs-watchdog ends via the watchdog within ~a simulated second,
        # so it is the cheapest full-pipeline mission to drive the CLI.
        out_path = tmp_path / "watchdog.json"
        prom_path = tmp_path / "watchdog.prom"
        assert main([
            "obs", "--mission", "obs-watchdog",
            "--out", str(out_path), "--prometheus", str(prom_path),
        ]) == 0
        record = FlightRecord.from_json(out_path.read_text())
        assert record.label
        assert "rose_sync_watchdog_fires_total" in prom_path.read_text()

        assert main(["obs", "--validate", str(out_path)]) == 0
        capsys.readouterr()

        assert main(["obs", "--diff", str(out_path), str(out_path)]) == 0
        assert "identical" in capsys.readouterr().out

        merged_path = tmp_path / "merged.json"
        assert main([
            "obs", "--summarize", str(tmp_path), "--out", str(merged_path),
        ]) == 0
        assert "artifact(s) merged" in capsys.readouterr().out
        assert json.loads(merged_path.read_text())

    def test_unknown_mission_exit_two(self, capsys):
        assert main(["obs", "--mission", "nope"]) == 2
        assert "unknown mission" in capsys.readouterr().err

    def test_validate_bad_artifact_exit_one(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"format": "rose-obs/1"}))
        assert main(["obs", "--validate", str(bad)]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_no_action_exit_two(self, capsys):
        assert main(["obs"]) == 2
        assert "nothing to do" in capsys.readouterr().err
