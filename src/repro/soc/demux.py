"""Software demultiplexer for the shared RoSE RX queue.

The bridge exposes a single hardware RX FIFO.  When multiple tasks run on
the SoC, each waiting for different response types, a task that pops a
packet meant for its neighbour must not drop it — the standard solution is
a small driver layer that pops packets and sorts them into per-type
software mailboxes.  :class:`IoDemux` is that layer; tasks receive through
:meth:`IoDemux.recv` instead of the raw
:meth:`~repro.soc.program.TargetRuntime.recv_packet_of`.

The demux object is plain shared state between tasks (they are cooperative
coroutines on one core, so no locking is modeled beyond the serialization
the scheduler already provides).
"""

from __future__ import annotations

from collections import deque

from repro.core.packets import DataPacket, PacketType
from repro.soc.program import TargetRuntime


class IoDemux:
    """Per-type software mailboxes over the shared RX FIFO."""

    def __init__(self) -> None:
        self._mailboxes: dict[PacketType, deque[DataPacket]] = {}
        self.packets_sorted = 0

    def _mailbox(self, ptype: PacketType) -> deque:
        if ptype not in self._mailboxes:
            self._mailboxes[ptype] = deque()
        return self._mailboxes[ptype]

    def pending(self, ptype: PacketType) -> int:
        return len(self._mailboxes.get(ptype, ()))

    def deliver(self, packet: DataPacket) -> None:
        self._mailbox(packet.ptype).append(packet)
        self.packets_sorted += 1

    def take(self, ptype: PacketType) -> DataPacket:
        return self._mailbox(ptype).popleft()

    #: How long one raw-FIFO wait may run before the task re-checks its
    #: mailbox.  A task must never block indefinitely on the hardware
    #: queue: a neighbouring task may pop and sort this task's response
    #: while it waits, and only a mailbox re-check can observe that.
    POLL_CHUNK_CYCLES = 50_000

    def recv(
        self,
        rt: TargetRuntime,
        ptype: PacketType,
        timeout_cycles: int | None = None,
    ):
        """Generator helper: receive the next packet of ``ptype``.

        Pops the hardware queue (charging the normal MMIO/copy costs) and
        sorts every packet into its mailbox until the requested type is
        available.  Packets for other tasks are preserved in their
        mailboxes rather than dropped.  With ``timeout_cycles`` the wait is
        bounded and returns ``None`` on expiry (the caller's degradation
        path); the default wait is indefinite.

        A bounded wait is measured in target cycles: the ``CYCLE``
        register is read when the wait starts and after each raw-FIFO
        chunk, and the last chunk's own timeout is capped at the cycles
        left.  (A chunk's backoff sleeps overshoot its timeout, so
        counting chunks would let the wait run long.)  It returns ``None``
        at or after its deadline, less than one chunk's sleeps past it.
        """
        bounded = timeout_cycles is not None
        if bounded:
            start = now = yield from rt.current_cycle()
        chunk = self.POLL_CHUNK_CYCLES
        while True:
            if self.pending(ptype):
                return self.take(ptype)
            if bounded:
                left = timeout_cycles - (now - start)
                if left <= 0:
                    return None
                chunk = min(self.POLL_CHUNK_CYCLES, left)
            packet = yield from rt.recv_packet(timeout_cycles=chunk)
            if bounded:
                now = yield from rt.current_cycle()
            if packet is not None:
                self.deliver(packet)

    def request(
        self,
        rt: TargetRuntime,
        request_packet: DataPacket,
        response_type: PacketType,
        timeout_cycles: int | None = None,
    ):
        """Send a request and receive its (demultiplexed) typed response."""
        yield from rt.send_packet(request_packet)
        response = yield from self.recv(rt, response_type, timeout_cycles)
        return response
