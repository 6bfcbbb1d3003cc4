"""Tests for the SoC top level and its cycle-resolution execution engine."""

from __future__ import annotations

import pytest

from repro.core import packets as pk
from repro.errors import ConfigError, TargetProgramError
from repro.soc.iodev import REG_RX_COUNT, REG_RX_DATA, REG_TX_DATA
from repro.soc.soc import CONFIG_A, CONFIG_B, CONFIG_C, Soc, soc_config


class TestTable2Configs:
    def test_config_a(self):
        assert CONFIG_A.cpu == "boom"
        assert CONFIG_A.has_gemmini

    def test_config_b(self):
        assert CONFIG_B.cpu == "rocket"
        assert CONFIG_B.has_gemmini

    def test_config_c(self):
        assert CONFIG_C.cpu == "boom"
        assert not CONFIG_C.has_gemmini

    def test_lookup_case_insensitive(self):
        assert soc_config("a") is CONFIG_A
        assert soc_config("B") is CONFIG_B

    def test_unknown_config(self):
        with pytest.raises(ConfigError):
            soc_config("D")

    def test_descriptions(self):
        assert "BOOM" in CONFIG_A.description
        assert "Gemmini" in CONFIG_A.description
        assert "None" in CONFIG_C.description
        assert "Rocket" in CONFIG_B.description


class TestSocConstruction:
    def test_config_c_has_no_gemmini(self):
        soc = Soc(CONFIG_C)
        assert soc.gemmini is None
        assert soc.gemmini_busy_cycles == 0
        assert soc.activity_factor == 0.0

    def test_step_without_program_raises(self):
        soc = Soc(CONFIG_A)
        with pytest.raises(TargetProgramError):
            soc.step(100)

    def test_step_rejects_non_positive_budget(self):
        soc = Soc(CONFIG_A)
        soc.load_program(lambda rt: iter(()))
        with pytest.raises(ConfigError):
            soc.step(0)


def make_soc(program, config=CONFIG_A):
    soc = Soc(config)
    soc.load_program(program)
    return soc


class TestExecution:
    def test_budget_fully_consumed(self):
        def program(rt):
            yield from rt.delay(50)

        soc = make_soc(program)
        assert soc.step(1000) == 1000
        assert soc.cycle == 1000
        assert soc.halted

    def test_idle_after_halt_accounted(self):
        def program(rt):
            yield from rt.delay(100)

        soc = make_soc(program)
        soc.step(1000)
        assert soc.idle_cycles >= 900

    def test_op_spans_step_boundary(self):
        trace = []

        def program(rt):
            yield from rt.delay(150)
            trace.append(("done-at", None))

        soc = make_soc(program)
        soc.step(100)
        assert not trace  # op still pending
        soc.step(100)
        assert trace  # completed during second step
        assert soc.cycle == 200

    def test_mmio_read_value_delivered(self):
        values = []

        def program(rt):
            count = yield from rt.mmio_read(REG_RX_COUNT)
            values.append(count)

        soc = make_soc(program)
        soc.bridge.host_inject(pk.depth_response(1.0))
        soc.step(10_000)
        assert values == [1]

    def test_rx_pop_charges_copy_cost(self):
        """Popping a big packet must cost more cycles than a small one."""

        def program(rt):
            yield from rt.mmio_read(REG_RX_DATA)

        small = make_soc(program)
        small.bridge.host_inject(pk.depth_response(1.0))
        large = make_soc(program)
        large.bridge.host_inject(
            pk.camera_response(32, 48, 0, 0, 0, 1.6, bytes(32 * 48))
        )
        # Run both to completion and compare busy cycles.
        small.step(10_000_000)
        large.step(10_000_000)
        assert large.counters.cpu_busy_cycles > small.counters.cpu_busy_cycles

    def test_tx_write_visible_after_completion(self):
        def program(rt):
            yield from rt.mmio_write(REG_TX_DATA, pk.camera_request())
            yield from rt.delay(1_000_000)

        soc = make_soc(program)
        soc.step(10)  # far less than the write cost: not visible yet
        assert soc.bridge.host_collect() == []
        soc.step(10_000)
        assert [p.ptype for p in soc.bridge.host_collect()] == [pk.PacketType.CAMERA_REQ]

    def test_cycle_register_reads_current_cycle(self):
        values = []

        def program(rt):
            yield from rt.delay(500)
            value = yield from rt.current_cycle()
            values.append(value)

        soc = make_soc(program)
        soc.step(10_000)
        # Read happens at fetch (cycle 500), delivered after the access cost.
        assert values[0] == 500

    def test_unknown_op_rejected(self):
        def program(rt):
            yield ("teleport", 42)

        soc = make_soc(program)
        with pytest.raises(TargetProgramError):
            soc.step(100)

    def test_negative_delay_rejected(self):
        def program(rt):
            yield ("delay", -5)

        soc = make_soc(program)
        with pytest.raises(TargetProgramError):
            soc.step(100)

    def test_counters_track_ops(self):
        def program(rt):
            yield from rt.mmio_read(REG_RX_COUNT)
            yield from rt.mmio_write(REG_TX_DATA, pk.camera_request())

        soc = make_soc(program)
        soc.step(100_000)
        assert soc.counters.mmio_reads == 1
        assert soc.counters.mmio_writes == 1


class TestInferenceIntegration:
    def test_inference_consumes_report_cycles(self):
        from repro.dnn.resnet import build_resnet_graph
        from repro.dnn.runtime import InferenceSession

        soc = Soc(CONFIG_A)
        session = InferenceSession(
            build_resnet_graph("resnet6"), soc.cpu, soc.gemmini
        )
        reports = []

        def program(rt):
            report = yield from rt.run_inference(session)
            reports.append(report)

        soc.load_program(program)
        expected = session.report.total_cycles
        soc.step(expected - 1)
        assert not reports
        soc.step(10)
        assert reports and reports[0].total_cycles == expected

    def test_activity_factor_reflects_gemmini_share(self):
        from repro.dnn.resnet import build_resnet_graph
        from repro.dnn.runtime import InferenceSession

        soc = Soc(CONFIG_A)
        session = InferenceSession(build_resnet_graph("resnet14"), soc.cpu, soc.gemmini)

        def program(rt):
            while True:
                yield from rt.run_inference(session)

        soc.load_program(program)
        soc.step(500_000_000)
        expected = session.report.gemmini_cycles / session.report.total_cycles
        assert soc.activity_factor == pytest.approx(expected, rel=0.05)
