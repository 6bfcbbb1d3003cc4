"""The RoSE BRIDGE: hardware queues + simulation-throttling control unit.

Section 3.2: "RoSE builds on top of the FireSim infrastructure with the
RoSE BRIDGE, which synchronously models I/O between a companion computer
and a flight controller.  The RoSE BRIDGE is exposed to the target SoC as
memory-mapped I/O registers on the system bus ... The bridge itself
consists of hardware queues that buffer data being sent to and from the
SoC, as well as a control unit that can throttle the execution of the RTL
simulation."

Two sides exist:

* the **target side** (:class:`repro.soc.iodev.RoseIoDevice`) reads/writes
  the queues through MMIO registers, and
* the **host side** (the bridge driver) injects environment data packets
  into the RX queue and collects SoC packets from the TX queue between
  simulation steps.

The control unit holds the token budget: the RTL simulation may only
advance ``cycles_per_sync`` cycles per granted synchronization step.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.packets import DATA_TYPES, DataPacket
from repro.errors import BridgeError, InvariantViolation

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.invariants import InvariantChecker


@dataclass
class BridgeConfig:
    """Hardware queue capacities (bytes of buffered payload)."""

    rx_capacity_bytes: int = 1 << 20  # host -> SoC (holds camera frames)
    tx_capacity_bytes: int = 1 << 16  # SoC -> host (small commands)

    def __post_init__(self) -> None:
        if self.rx_capacity_bytes <= 0 or self.tx_capacity_bytes <= 0:
            raise BridgeError("bridge queue capacities must be positive")


@dataclass
class BridgeCounters:
    """Observability counters (what the artifact's CSV logs track)."""

    rx_enqueued: int = 0
    rx_dequeued: int = 0
    tx_enqueued: int = 0
    tx_dequeued: int = 0
    rx_rejected: int = 0
    steps_granted: int = 0
    #: Payload bytes accepted into each queue over the whole run — the
    #: DMA traffic the obs layer reports (queue-occupancy bytes are the
    #: separate ``_rx_bytes``/``_tx_bytes`` running balances).
    rx_bytes_enqueued: int = 0
    tx_bytes_enqueued: int = 0


class RoseBridge:
    """Queues + control unit shared by the SoC model and the host driver."""

    def __init__(self, config: BridgeConfig | None = None):
        self.config = config or BridgeConfig()
        self._rx: deque[DataPacket] = deque()
        self._tx: deque[DataPacket] = deque()
        self._rx_bytes = 0
        self._tx_bytes = 0
        self.cycles_per_sync = 0
        self.frames_per_sync = 0
        self.counters = BridgeCounters()
        #: Optional conformance hook (repro.core.invariants): when set,
        #: queue conservation is re-verified at every granted step.
        self.invariants: "InvariantChecker | None" = None

    # ------------------------------------------------------------------
    # Control unit
    # ------------------------------------------------------------------
    def set_steps(self, cycles: int, frames: int) -> None:
        """Program the per-synchronization cycle/frame budget."""
        if cycles <= 0 or frames <= 0:
            raise BridgeError(
                f"sync budget must be positive (cycles={cycles}, frames={frames})"
            )
        self.cycles_per_sync = int(cycles)
        self.frames_per_sync = int(frames)

    def grant_step(self) -> int:
        """Record one granted step; returns the cycle budget."""
        if self.cycles_per_sync <= 0:
            raise BridgeError("grant_step before set_steps")
        self.counters.steps_granted += 1
        if self.invariants is not None:
            self.check_conservation()
        return self.cycles_per_sync

    # ------------------------------------------------------------------
    # Host (driver) side
    # ------------------------------------------------------------------
    def host_inject(self, packet: DataPacket) -> bool:
        """Inject a data packet into the RX queue; False if it would
        overflow the hardware buffer (the driver must retry next step)."""
        if packet.ptype not in DATA_TYPES:
            raise BridgeError(
                f"sync packet {packet.ptype.name} must not enter the data queues"
            )
        size = packet.payload_bytes
        if self._rx_bytes + size > self.config.rx_capacity_bytes:
            self.counters.rx_rejected += 1
            return False
        self._rx.append(packet)
        self._rx_bytes += size
        self.counters.rx_enqueued += 1
        self.counters.rx_bytes_enqueued += size
        return True

    def host_collect(self) -> list[DataPacket]:
        """Drain the TX queue (SoC -> host)."""
        if not self._tx:
            return []
        packets = list(self._tx)
        self._tx.clear()
        self._tx_bytes = 0
        self.counters.tx_dequeued += len(packets)
        return packets

    # ------------------------------------------------------------------
    # Target (SoC) side
    # ------------------------------------------------------------------
    def target_rx_count(self) -> int:
        return len(self._rx)

    def target_rx_head_bytes(self) -> int:
        return self._rx[0].payload_bytes if self._rx else 0

    def target_rx_pop(self) -> DataPacket:
        if not self._rx:
            raise BridgeError("RX queue underflow: pop on empty queue")
        packet = self._rx.popleft()
        self._rx_bytes -= packet.payload_bytes
        self.counters.rx_dequeued += 1
        return packet

    def target_tx_space(self) -> int:
        return self.config.tx_capacity_bytes - self._tx_bytes

    def target_tx_push(self, packet: DataPacket) -> None:
        if packet.ptype not in DATA_TYPES:
            raise BridgeError(
                f"target may only send data packets, not {packet.ptype.name}"
            )
        size = packet.payload_bytes
        if self._tx_bytes + size > self.config.tx_capacity_bytes:
            raise BridgeError(
                "TX queue overflow: the target must check TX_SPACE before pushing"
            )
        self._tx.append(packet)
        self._tx_bytes += size
        self.counters.tx_enqueued += 1
        self.counters.tx_bytes_enqueued += size

    # ------------------------------------------------------------------
    @property
    def rx_buffered_bytes(self) -> int:
        return self._rx_bytes

    @property
    def tx_buffered_bytes(self) -> int:
        return self._tx_bytes

    @property
    def pending_tx_count(self) -> int:
        return len(self._tx)

    # ------------------------------------------------------------------
    def check_conservation(self) -> None:
        """Verify the queues' byte books against the actual queued packets.

        The incremental ``_rx_bytes``/``_tx_bytes`` accounting and the
        enqueue/dequeue counters must always agree with a from-scratch
        recount; a mismatch means a queue was mutated outside the bridge
        protocol.  Raises :class:`~repro.errors.InvariantViolation`.
        """
        rx_actual = sum(packet.payload_bytes for packet in self._rx)
        if rx_actual != self._rx_bytes:
            raise InvariantViolation(
                f"[token-conservation] RX byte books drifted: accounted "
                f"{self._rx_bytes}, queued packets hold {rx_actual}"
            )
        tx_actual = sum(packet.payload_bytes for packet in self._tx)
        if tx_actual != self._tx_bytes:
            raise InvariantViolation(
                f"[token-conservation] TX byte books drifted: accounted "
                f"{self._tx_bytes}, queued packets hold {tx_actual}"
            )
        counters = self.counters
        if counters.rx_enqueued - counters.rx_dequeued != len(self._rx):
            raise InvariantViolation(
                f"[token-conservation] RX counters drifted: enqueued "
                f"{counters.rx_enqueued} - dequeued {counters.rx_dequeued} "
                f"!= {len(self._rx)} buffered"
            )
        if counters.tx_enqueued - counters.tx_dequeued != len(self._tx):
            raise InvariantViolation(
                f"[token-conservation] TX counters drifted: enqueued "
                f"{counters.tx_enqueued} - dequeued {counters.tx_dequeued} "
                f"!= {len(self._tx)} buffered"
            )
