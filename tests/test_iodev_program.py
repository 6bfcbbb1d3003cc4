"""Tests for the RoSE MMIO device and the target-program runtime API."""

from __future__ import annotations

import pytest

from repro.core import packets as pk
from repro.core.bridge import RoseBridge
from repro.core.packets import PacketType
from repro.errors import TargetProgramError
from repro.soc.iodev import (
    REG_CYCLE,
    REG_RX_COUNT,
    REG_RX_DATA,
    REG_RX_SIZE,
    REG_TX_DATA,
    REG_TX_SPACE,
    RoseIoDevice,
)
from repro.soc.calib import TARGET_POLL_INTERVAL_CYCLES
from repro.soc.program import TargetRuntime


@pytest.fixture
def bridge():
    return RoseBridge()


@pytest.fixture
def iodev(bridge):
    return RoseIoDevice(bridge)


class TestIoDevice:
    def test_rx_count_empty(self, iodev):
        assert iodev.read(REG_RX_COUNT) == 0
        assert iodev.read(REG_RX_SIZE) == 0

    def test_rx_flow(self, bridge, iodev):
        bridge.host_inject(pk.depth_response(5.0))
        assert iodev.read(REG_RX_COUNT) == 1
        assert iodev.read(REG_RX_SIZE) == 8
        packet = iodev.read(REG_RX_DATA)
        assert packet.values == (5.0,)
        assert iodev.read(REG_RX_COUNT) == 0

    def test_tx_flow(self, bridge, iodev):
        space = iodev.read(REG_TX_SPACE)
        iodev.write(REG_TX_DATA, pk.camera_request())
        assert iodev.read(REG_TX_SPACE) == space
        assert [p.ptype for p in bridge.host_collect()] == [PacketType.CAMERA_REQ]

    def test_cycle_register(self, iodev):
        iodev.attach_cycle_source(lambda: 1234)
        assert iodev.read(REG_CYCLE) == 1234

    def test_write_to_readonly_rejected(self, iodev):
        with pytest.raises(TargetProgramError):
            iodev.write(REG_RX_COUNT, 1)

    def test_read_of_writeonly_rejected(self, iodev):
        with pytest.raises(TargetProgramError):
            iodev.read(REG_TX_DATA)

    def test_non_packet_write_rejected(self, iodev):
        with pytest.raises(TargetProgramError):
            iodev.write(REG_TX_DATA, 42)


def run_program(gen, responses=None):
    """Drive a target-program generator directly, returning yielded ops.

    ``responses`` maps op kinds to a callable producing the send value.
    """
    responses = responses or {}
    ops = []
    value = None
    try:
        while True:
            op = gen.send(value)
            ops.append(op)
            handler = responses.get(op[0])
            value = handler(op) if handler else None
    except StopIteration as stop:
        return ops, stop.value


class TestTargetRuntime:
    def test_delay_yields_op(self):
        rt = TargetRuntime()
        ops, _ = run_program(rt.delay(500))
        assert ops == [("delay", 500)]

    def test_mmio_read_returns_sent_value(self):
        rt = TargetRuntime()

        def program():
            value = yield from rt.mmio_read(REG_RX_COUNT)
            return value

        ops, result = run_program(program(), {"mmio_read": lambda op: 7})
        assert result == 7

    def test_recv_packet_yields_one_wait_op(self):
        # The poll loop runs in the SoC engine (see tests/test_soc_wait.py).
        rt = TargetRuntime()
        packet = pk.depth_response(1.0)
        ops, result = run_program(rt.recv_packet(5_000), {"recv": lambda op: packet})
        assert ops == [("recv", 5_000)]
        assert result is packet

    def test_send_packet_waits_for_space(self):
        rt = TargetRuntime()
        spaces = iter([0, 0, 1024])
        written = []

        def reader(op):
            return next(spaces)

        def writer(op):
            written.append(op[2])

        def program():
            # A 32-byte TARGET_CMD: must wait until TX_SPACE >= 32.
            yield from rt.send_packet(pk.target_command(1.0, 0.0, 0.0, 1.5))

        ops, _ = run_program(program(), {"mmio_read": reader, "mmio_write": writer})
        assert len(written) == 1
        assert [op for op in ops if op[0] == "delay"] == [
            ("delay", TARGET_POLL_INTERVAL_CYCLES)
        ] * 2

    def test_run_inference_yields_session(self):
        rt = TargetRuntime()
        marker = object()

        def program():
            report = yield from rt.run_inference(marker)
            return report

        ops, result = run_program(program(), {"inference": lambda op: "report"})
        assert ops[0] == ("inference", marker)
        assert result == "report"
