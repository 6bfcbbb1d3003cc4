"""Tests for the DNN runtime (ONNX-Runtime analog)."""

from __future__ import annotations

import pytest

from repro.dnn.graph import GraphBuilder
from repro.dnn.resnet import RESNET_NAMES, build_all_graphs
from repro.dnn.runtime import (
    SESSION_SWITCH_CYCLES,
    InferenceSession,
    latency_table,
)
from repro.soc.cpu import boom_core, rocket_core
from repro.soc.gemmini import default_gemmini

#: Table 3's latency columns (ms).
PAPER_BOOM = {"resnet6": 77, "resnet11": 83, "resnet14": 85, "resnet18": 130, "resnet34": 225}
PAPER_ROCKET = {"resnet6": 101, "resnet11": 108, "resnet14": 125, "resnet18": 185, "resnet34": 300}


@pytest.fixture(scope="module")
def graphs():
    return build_all_graphs()


class TestPlacement:
    def test_matmuls_on_gemmini(self, graphs):
        session = InferenceSession(graphs["resnet14"], boom_core(), default_gemmini())
        for cost in session.report.node_costs:
            if cost.op in ("conv", "linear"):
                assert cost.backend == "gemmini"
            else:
                assert cost.backend == "cpu"

    def test_cpu_fallback_without_gemmini(self, graphs):
        session = InferenceSession(graphs["resnet14"], boom_core(), None)
        assert all(c.backend == "cpu" for c in session.report.node_costs)
        assert session.report.gemmini_cycles == 0

    def test_flatten_free(self):
        b = GraphBuilder("g", (4, 8, 8))
        b.globalavgpool()
        b.linear(3)
        b.softmax()
        b.output()
        session = InferenceSession(b.build(), boom_core(), None)
        # No flatten in this graph; just sanity that INPUT costs nothing.
        input_cost = session.report.node_costs[0]
        assert input_cost.cycles == 0


class TestReports:
    def test_total_is_sum_of_parts(self, graphs):
        session = InferenceSession(graphs["resnet6"], boom_core(), default_gemmini())
        report = session.report
        node_sum = sum(c.cycles for c in report.node_costs)
        assert report.total_cycles == (
            node_sum + report.dispatch_cycles + report.session_fixed_cycles
        )
        assert report.cpu_cycles == report.total_cycles - report.gemmini_cycles

    def test_latency_units(self, graphs):
        session = InferenceSession(graphs["resnet6"], boom_core(), default_gemmini())
        report = session.report
        assert report.latency_ms(1e9) == pytest.approx(report.total_cycles / 1e6)
        assert report.latency_seconds(1e9) == pytest.approx(report.total_cycles / 1e9)

    def test_run_is_deterministic(self, graphs):
        session = InferenceSession(graphs["resnet6"], boom_core(), default_gemmini())
        assert session.run() == session.run()
        assert session.inferences_run == 2

    def test_run_accounts_gemmini(self, graphs):
        gemmini = default_gemmini()
        session = InferenceSession(graphs["resnet6"], boom_core(), gemmini)
        session.run()
        assert gemmini.busy_cycles == session.report.gemmini_cycles


class TestTable3Shape:
    """The modeled latencies must reproduce Table 3's qualitative shape."""

    def test_latency_monotone_in_depth(self, graphs):
        table = latency_table(graphs, boom_core(), default_gemmini())
        latencies = [table[n].latency_ms() for n in RESNET_NAMES]
        assert latencies == sorted(latencies)

    def test_rocket_slower_than_boom(self, graphs):
        boom = latency_table(graphs, boom_core(), default_gemmini())
        rocket = latency_table(graphs, rocket_core(), default_gemmini())
        for name in RESNET_NAMES:
            assert rocket[name].total_cycles > boom[name].total_cycles

    @pytest.mark.parametrize("name", RESNET_NAMES)
    def test_boom_latency_within_2x_of_paper(self, graphs, name):
        table = latency_table(graphs, boom_core(), default_gemmini())
        measured = table[name].latency_ms()
        paper = PAPER_BOOM[name]
        assert paper / 2 < measured < paper * 2

    @pytest.mark.parametrize("name", RESNET_NAMES)
    def test_rocket_latency_within_2x_of_paper(self, graphs, name):
        table = latency_table(graphs, rocket_core(), default_gemmini())
        measured = table[name].latency_ms()
        paper = PAPER_ROCKET[name]
        assert paper / 2 < measured < paper * 2

    def test_resnet34_to_resnet14_ratio(self, graphs):
        # Paper: 225/85 = 2.6x on BOOM.  Shape check: clearly super-2x.
        table = latency_table(graphs, boom_core(), default_gemmini())
        ratio = table["resnet34"].total_cycles / table["resnet14"].total_cycles
        assert 1.8 < ratio < 3.5

    def test_cpu_only_resnet14_near_6s(self, graphs):
        """Section 5.1: ~6 s image-to-target latency on BOOM without
        Gemmini."""
        table = latency_table(graphs, boom_core(), None)
        seconds = table["resnet14"].latency_seconds(1e9)
        assert 4.0 < seconds < 8.0

    def test_gemmini_speedup_large(self, graphs):
        with_acc = latency_table(graphs, boom_core(), default_gemmini())
        without = latency_table(graphs, boom_core(), None)
        speedup = without["resnet14"].total_cycles / with_acc["resnet14"].total_cycles
        assert speedup > 20


class TestSessionSwitch:
    def test_switch_cost_positive(self):
        assert SESSION_SWITCH_CYCLES > 0

    def test_two_sessions_independent(self, graphs):
        gemmini = default_gemmini()
        hi = InferenceSession(graphs["resnet14"], boom_core(), gemmini)
        lo = InferenceSession(graphs["resnet6"], boom_core(), gemmini)
        hi.run()
        lo.run()
        assert hi.inferences_run == 1
        assert lo.inferences_run == 1
        assert gemmini.busy_cycles == (
            hi.report.gemmini_cycles + lo.report.gemmini_cycles
        )
