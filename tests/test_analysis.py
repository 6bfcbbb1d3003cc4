"""Tests for the analysis package (table/figure data generators)."""

from __future__ import annotations

import pytest

from repro.analysis.figures import (
    fig12_data,
    fig15_data,
    fig16_data,
    table2_rows,
    table3_rows,
    table4_rows,
)
from repro.analysis.render import format_table
from repro.core.deploy import CLOUD_AWS, ON_PREMISE


class TestRender:
    def test_alignment(self):
        text = format_table(["a", "bbbb"], [["x", 1], ["yyyy", 22]])
        lines = text.splitlines()
        assert lines[0].startswith("a")
        assert all(len(line) <= max(len(l) for l in lines) for line in lines)

    def test_title(self):
        text = format_table(["h"], [["v"]], title="Table X")
        assert text.splitlines()[0] == "Table X"

    def test_separator_row(self):
        text = format_table(["col"], [["val"]])
        assert "---" in text.splitlines()[1]


class TestTables:
    def test_table2(self):
        rows = table2_rows()
        assert rows == [
            ("A", "3-wide BOOM", "Gemmini"),
            ("B", "Rocket", "Gemmini"),
            ("C", "3-wide BOOM", "None"),
        ]

    def test_table3_shape(self):
        rows = table3_rows(accuracy_samples=800)
        assert [r["model"] for r in rows] == [
            "resnet6",
            "resnet11",
            "resnet14",
            "resnet18",
            "resnet34",
        ]
        for row in rows:
            assert row["latency_rocket_ms"] > row["latency_boom_ms"]
            assert row["accuracy"] == pytest.approx(row["target_accuracy"], abs=0.06)
        accs = [r["accuracy"] for r in rows]
        assert accs[-1] > accs[0]  # deeper -> more accurate

    def test_table4(self):
        deployments = table4_rows()
        assert deployments["on-premise"] is ON_PREMISE
        assert deployments["cloud-aws"] is CLOUD_AWS


class TestPerfFigures:
    def test_fig15_monotone_saturating(self):
        points = fig15_data()
        rates = [p.throughput_mhz for p in points]
        assert rates == sorted(rates)
        assert rates[-1] <= ON_PREMISE.perf.fpga_sim_rate_mhz
        # Fine granularity is far below the FPGA bound.
        assert rates[0] < 0.5 * rates[-1]

    def test_fig15_sync_only_upper_bound(self):
        for point in fig15_data():
            assert point.sync_only_mhz >= point.throughput_mhz

    def test_fig15_cloud_slower_at_fine_granularity(self):
        on_prem = fig15_data(ON_PREMISE)[0]
        cloud = fig15_data(CLOUD_AWS)[0]
        assert cloud.throughput_mhz < on_prem.throughput_mhz


class TestClosedLoopDataGenerators:
    """Smoke tests with truncated missions (full sweeps live in benches)."""

    def test_fig12_structure(self):
        data = fig12_data(seeds=(0,), velocities=(9.0,))
        entry = data[9.0]
        assert entry["runs"] == 1
        assert entry["mean_mission_time"] > 0

    def test_fig16_latency_monotone_at_extremes(self):
        data = fig16_data(granularities=(10_000_000, 400_000_000))
        fine = data[10_000_000]
        coarse = data[400_000_000]
        assert coarse.mean_inference_latency_ms > fine.mean_inference_latency_ms
