"""Target-program runtime API.

Programs for the simulated SoC are written as Python generators that
*yield timed operations*; the SoC execution engine interprets each op,
charges its cycle cost against the current token budget, and sends back
the op's result.  This style gives the model what it needs from a target
binary — a totally ordered stream of I/O and compute with cycle costs —
without simulating RISC-V instructions (see DESIGN.md).

Primitive operations (what the engine interprets):

``("delay", cycles)``
    idle / generic CPU work of known cost.
``("cpu", cycles)``
    CPU compute (accounted as busy, same timing as delay).
``("mmio_read", reg)``
    uncached read of a RoSE register; resolves to the register value.
    Popping ``RX_DATA`` additionally pays the payload copy cost.
``("mmio_write", reg, value)``
    uncached write; pushing ``TX_DATA`` pays the payload copy cost.
``("inference", session)``
    run one DNN inference; costs the session's report cycles and resolves
    to the :class:`~repro.dnn.runtime.InferenceReport`.
``("recv", timeout_cycles)``
    wait for one RX packet and resolve to it, or to ``None`` once the
    wait's backoff sleeps reach ``timeout_cycles`` (``None``: never).
    The engine issues the wait's ``mmio_read`` and ``delay`` ops itself
    (see :meth:`TargetRuntime.recv_packet`) and charges them as if they
    were yielded; for the SoC's only task it charges the polls that
    cannot see a packet before the window ends in one step.

Programs normally use the composite helpers on :class:`TargetRuntime`
(``recv_packet`` / ``send_packet`` / ``run_inference``) rather than raw
ops.
"""

from __future__ import annotations

from typing import Generator

from repro.core.packets import DataPacket, PacketType
from repro.soc import calib
from repro.soc.iodev import REG_CYCLE, REG_TX_DATA, REG_TX_SPACE

#: Type alias for readability: a target program is a generator of ops.
TargetProgram = Generator

#: Cap on the receive loop's doubling poll interval, in cycles.
MAX_POLL_INTERVAL_CYCLES = 1_000_000


class TargetRuntime:
    """Helper library available to target programs.

    Stateless; all state lives in the SoC engine that interprets the
    yielded ops, the poll loop of a receive wait included.  Polls start
    every ``calib.TARGET_POLL_INTERVAL_CYCLES`` and back off to
    :data:`MAX_POLL_INTERVAL_CYCLES`.  The helpers yield their ops
    directly rather than through ``yield from`` the primitives, which
    would cost a generator per op.
    """

    # -- primitives ------------------------------------------------------
    def delay(self, cycles: int):
        yield ("delay", int(cycles))

    def compute(self, cycles: int):
        yield ("cpu", int(cycles))

    def mmio_read(self, reg: int):
        return (yield ("mmio_read", reg))

    def mmio_write(self, reg: int, value):
        yield ("mmio_write", reg, value)

    def current_cycle(self):
        return (yield ("mmio_read", REG_CYCLE))

    # -- composite I/O helpers --------------------------------------------
    def recv_packet(self, timeout_cycles: int | None = None):
        """Block (polling) until an RX packet arrives; returns it.

        Returns ``None`` if ``timeout_cycles`` elapse first.  The polling
        loop is what couples the application to the synchronization
        granularity: data only appears at synchronization boundaries, so a
        request issued mid-period stalls until the next boundary
        (Section 5.5).  Polling backs off exponentially (the application
        sleeps between polls), bounding both target-side poll traffic and
        host-side simulation work during long stalls.

        The loop runs in the SoC engine, which issues its ops one by one:
        read ``RX_COUNT``; if non-zero pop ``RX_DATA`` and return the
        packet (a pop lost to a concurrent task returns nothing and the
        wait goes on); return ``None`` once the sleeps so far reach
        ``timeout_cycles``; else sleep and poll again, the sleep doubling
        from ``calib.TARGET_POLL_INTERVAL_CYCLES`` to
        :data:`MAX_POLL_INTERVAL_CYCLES`.
        """
        packet = yield ("recv", timeout_cycles)
        return packet

    def recv_packet_of(self, ptype: PacketType, timeout_cycles: int | None = None):
        """Receive until a packet of ``ptype`` arrives, discarding others."""
        while True:
            packet = yield from self.recv_packet(timeout_cycles)
            if packet is None or packet.ptype == ptype:
                return packet

    def send_packet(self, packet: DataPacket):
        """Push a packet to the TX queue, waiting for space if needed."""
        while True:
            space = yield ("mmio_read", REG_TX_SPACE)
            if space >= packet.payload_bytes:
                break
            yield ("delay", calib.TARGET_POLL_INTERVAL_CYCLES)
        yield ("mmio_write", REG_TX_DATA, packet)

    def request_response(
        self,
        request: DataPacket,
        response_type: PacketType,
        timeout_cycles: int | None = None,
    ):
        """Send a request and wait for its typed response (RPC pattern).

        With a ``timeout_cycles`` deadline, ``None`` is returned when the
        response fails to arrive in time (a response dropped on a faulty
        link); callers that retry re-issue the request and count the
        attempt themselves.  Without a deadline (the default) the wait is
        indefinite.
        """
        yield from self.send_packet(request)
        response = yield from self.recv_packet_of(response_type, timeout_cycles)
        return response

    # -- compute helpers ----------------------------------------------------
    def run_inference(self, session):
        """Run one DNN inference on its session; returns the report."""
        report = yield ("inference", session)
        return report
