"""Tests for core/trace.py: span nesting, instants, Chrome-trace export."""

from __future__ import annotations

import json

from repro.core.trace import TraceEvent, Tracer


def _chrome_events(tracer: Tracer) -> list[dict]:
    """Non-metadata records of the export, parsed back from JSON."""
    doc = json.loads(tracer.to_chrome_trace())
    return [e for e in doc["traceEvents"] if e.get("cat") != "__metadata"]


class TestEventModel:
    def test_zero_duration_is_instant(self):
        assert TraceEvent("x", "sync", 1.0).instant
        assert not TraceEvent("x", "sync", 1.0, duration_s=0.5).instant

    def test_args_recorded(self):
        tracer = Tracer()
        tracer.instant("grant", "sync", 0.01, step=4)
        tracer.span("infer", "dnn", 0.01, 0.002, track="soc", layer="conv1")
        assert tracer.events[0].args == {"step": 4}
        assert tracer.events[1].args == {"layer": "conv1"}

    def test_by_category(self):
        tracer = Tracer()
        tracer.instant("a", "sync", 0.0)
        tracer.instant("b", "dnn", 0.0)
        tracer.instant("c", "sync", 0.1)
        assert [e.name for e in tracer.by_category("sync")] == ["a", "c"]


class TestSpanNesting:
    """Nested spans export as complete ('X') events whose intervals the
    Chrome trace viewer reconstructs into a stack — the export must
    preserve containment exactly."""

    def test_nested_spans_preserve_containment(self):
        tracer = Tracer()
        tracer.span("step", "sync", start_s=0.10, duration_s=0.10)
        tracer.span("service", "sync", start_s=0.12, duration_s=0.05)
        tracer.span("inference", "dnn", start_s=0.13, duration_s=0.02)
        outer, mid, inner = _chrome_events(tracer)
        for record in (outer, mid, inner):
            assert record["ph"] == "X"
        # Containment in microsecond units: each child fits in its parent.
        assert outer["ts"] <= mid["ts"]
        assert mid["ts"] + mid["dur"] <= outer["ts"] + outer["dur"]
        assert mid["ts"] <= inner["ts"]
        assert inner["ts"] + inner["dur"] <= mid["ts"] + mid["dur"]

    def test_same_track_shares_tid(self):
        tracer = Tracer()
        tracer.span("a", "sync", 0.0, 0.1, track="synchronizer")
        tracer.span("b", "sync", 0.2, 0.1, track="synchronizer")
        tracer.span("c", "soc", 0.0, 0.1, track="soc")
        a, b, c = _chrome_events(tracer)
        assert a["tid"] == b["tid"]
        assert a["tid"] != c["tid"]

    def test_track_metadata_emitted_once_per_track(self):
        tracer = Tracer()
        tracer.instant("a", "sync", 0.0, track="synchronizer")
        tracer.instant("b", "sync", 0.0, track="soc")
        tracer.instant("c", "sync", 0.0, track="soc")
        doc = json.loads(tracer.to_chrome_trace())
        meta = [e for e in doc["traceEvents"] if e.get("cat") == "__metadata"]
        assert sorted(m["args"]["name"] for m in meta) == ["soc", "synchronizer"]


class TestChromeExport:
    def test_instants_exported_with_phase_i(self):
        tracer = Tracer()
        tracer.instant("grant", "sync", at_s=0.25, step=1)
        (record,) = _chrome_events(tracer)
        assert record["ph"] == "i"
        assert record["s"] == "t"
        assert record["ts"] == 0.25 * 1e6
        assert record["args"] == {"step": 1}
        assert "dur" not in record

    def test_timestamps_scaled_to_microseconds(self):
        tracer = Tracer()
        tracer.span("step", "sync", start_s=1.5, duration_s=0.125)
        (record,) = _chrome_events(tracer)
        assert record["ts"] == 1.5e6
        assert record["dur"] == 0.125e6

    def test_write_output_is_valid_json(self, tmp_path):
        tracer = Tracer()
        tracer.span("step", "sync", 0.0, 0.1)
        tracer.instant("done", "sync", 0.1)
        path = tmp_path / "trace.json"
        tracer.write(str(path))
        doc = json.loads(path.read_text())
        assert doc["displayTimeUnit"] == "ms"
        names = {e["name"] for e in doc["traceEvents"]}
        assert {"step", "done"} <= names

    def test_empty_tracer_exports_valid_document(self):
        doc = json.loads(Tracer().to_chrome_trace())
        assert doc["traceEvents"] == []
