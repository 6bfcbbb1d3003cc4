"""The RoSE MMIO I/O device on the SoC's system bus (Figure 4).

The target program talks to the RoSE bridge exclusively through this
register window.  Register semantics:

========== ======= ====================================================
offset      access  meaning
========== ======= ====================================================
RX_COUNT    read    number of complete packets waiting in the RX queue
RX_SIZE     read    payload bytes of the head RX packet (0 if empty)
RX_DATA     read    pop the head RX packet
TX_SPACE    read    free payload bytes in the TX queue
TX_DATA     write   push one packet into the TX queue
CYCLE       read    current SoC cycle (debug/telemetry)
========== ======= ====================================================

Modeling note: real hardware exposes byte/word-granularity FIFO registers;
the model moves whole packets per access and charges the per-byte copy
cost in the CPU model instead, which preserves timing without simulating
individual loads.
"""

from __future__ import annotations

from repro.core.bridge import RoseBridge
from repro.core.packets import DataPacket
from repro.errors import TargetProgramError

ROSE_MMIO_BASE = 0x1002_0000
ROSE_MMIO_SIZE = 0x1000

REG_RX_COUNT = 0x00
REG_RX_SIZE = 0x04
REG_RX_DATA = 0x08
REG_TX_SPACE = 0x0C
REG_TX_DATA = 0x10
REG_CYCLE = 0x14

_READABLE = {REG_RX_COUNT, REG_RX_SIZE, REG_RX_DATA, REG_TX_SPACE, REG_CYCLE}
_WRITABLE = {REG_TX_DATA}


class RoseIoDevice:
    """Register-window adapter between the SoC core and the bridge.

    It keeps no access counts: the SoC engine counts each MMIO op once,
    in :class:`~repro.soc.soc.SocCounters`.
    """

    def __init__(self, bridge: RoseBridge):
        self.bridge = bridge
        self._cycle_source = lambda: 0

    def attach_cycle_source(self, fn) -> None:
        """Let the SoC provide the CYCLE register's value."""
        self._cycle_source = fn

    def read(self, reg: int):
        if reg not in _READABLE:
            raise TargetProgramError(f"read of non-readable RoSE register 0x{reg:02x}")
        if reg == REG_RX_COUNT:
            return self.bridge.target_rx_count()
        if reg == REG_RX_SIZE:
            return self.bridge.target_rx_head_bytes()
        if reg == REG_RX_DATA:
            # An empty-FIFO read returns no packet rather than trapping:
            # with concurrent tasks, a neighbour may pop the queue between
            # this task's RX_COUNT check and its RX_DATA read (the classic
            # check-then-act race); drivers must re-check.
            if self.bridge.target_rx_count() == 0:
                return None
            return self.bridge.target_rx_pop()
        if reg == REG_TX_SPACE:
            return self.bridge.target_tx_space()
        return self._cycle_source()

    def write(self, reg: int, value) -> None:
        if reg not in _WRITABLE:
            raise TargetProgramError(f"write to non-writable RoSE register 0x{reg:02x}")
        if not isinstance(value, DataPacket):
            raise TargetProgramError(
                f"TX_DATA expects a DataPacket, got {type(value).__name__}"
            )
        self.bridge.target_tx_push(value)
