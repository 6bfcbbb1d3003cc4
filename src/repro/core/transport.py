"""Byte transports for the synchronizer <-> bridge-driver link.

The paper deploys the synchronizer and the FireSim bridge driver as
separate processes connected by TCP ("communicating ... with FireSim by
using a TCP listener", Section 3.4.1).  Two interchangeable transports
implement that link here:

* :class:`InProcessTransport` — a deque pair, used when the whole
  co-simulation runs in one process (the default for experiments;
  deterministic and zero copy).  ``send`` packs each packet's payload
  only to validate and size it exactly as the wire would, then hands the
  receiver the packet object itself; no frame is built or parsed.
  ``charge`` counts a frame that was never sent at all: on a lossless
  in-process link the synchronizer grants its in-process FireSim host by
  method call, and charges the SYNC_GRANT and SYNC_DONE it did not send.
* :class:`TcpTransport` — real localhost TCP sockets with the same framed
  packet protocol, proving the orchestration works across a process
  boundary exactly as deployed.

Frames exist only where bytes must: every packet on the TCP stream, and
every packet on a :class:`FaultyTransport`, whose injector corrupts,
delays and duplicates wire images that the in-process link then carries
as bytes (``send_wire``).  Frames are decoded (header, CRC, payload)
only there.  Either way a ``send`` raises the
:class:`~repro.errors.PacketError` that :func:`encode_packet` raises and
advances the byte counters by the frame's wire size, and ``recv`` is a
non-blocking poll returning ``None`` when no complete packet is
available, which is the semantics the lockstep loop needs.

Robustness semantics shared by both transports:

* a closed endpoint raises :class:`TransportError` from ``send`` *and*
  ``recv`` — half-dead endpoints must fail loudly, not return ``None``
  forever;
* a frame that fails to decode (CRC mismatch, bad framing) is *discarded*
  and counted in ``corrupt_packets`` rather than raised — one corrupted
  packet must not take down the link (the synchronizer's retry/watchdog
  paths recover the lost data);
* :class:`FaultyTransport` wraps any transport and injects faults from a
  seeded :class:`~repro.core.faults.FaultInjector` at the wire-byte level.
"""

from __future__ import annotations

import select
import socket
import struct
import time
from collections import deque
from typing import Union

from repro.core.faults import FaultInjector
from repro.core.packets import (
    HEADER_SIZE,
    MAGIC,
    DataPacket,
    decode_header,
    decode_packet,
    encode_packet,
    encode_payload,
)
from repro.errors import PacketError, TransportError


class Transport:
    """One endpoint of a bidirectional packet link."""

    def send(self, packet: DataPacket) -> None:
        raise NotImplementedError

    def send_wire(self, wire: bytes) -> None:
        """Transmit a pre-encoded (possibly deliberately corrupted) frame."""
        raise NotImplementedError

    def recv(self) -> DataPacket | None:
        """Return the next complete packet, or ``None`` if none is pending."""
        raise NotImplementedError

    def recv_blocking(self, timeout: float = 5.0) -> DataPacket:
        """Wait for the next packet; raises on timeout."""
        deadline = time.monotonic() + timeout  # repro: allow[DET002] I/O deadline
        while True:
            packet = self.recv()
            if packet is not None:
                return packet
            if time.monotonic() > deadline:  # repro: allow[DET002] I/O deadline
                raise TransportError(f"no packet within {timeout}s")
            time.sleep(0.0005)

    def drain(self) -> list[DataPacket]:
        """All packets currently pending."""
        packets = []
        while True:
            packet = self.recv()
            if packet is None:
                return packets
            packets.append(packet)

    def close(self) -> None:
        pass


#: What an in-process link queues: a validated packet object with its wire
#: size, or a raw frame from ``send_wire``.
_Queued = Union[tuple[DataPacket, int], bytes]


class InProcessTransport(Transport):
    """One end of a deque-backed in-process link (see :func:`transport_pair`)."""

    #: The other end of the link, which receives what this end sends.
    peer: InProcessTransport

    def __init__(self, outbox: deque[_Queued], inbox: deque[_Queued]):
        self._outbox = outbox
        self._inbox = inbox
        self._closed = False
        self.bytes_sent = 0
        self.bytes_received = 0
        self.packets_sent = 0
        self.corrupt_packets = 0

    def send(self, packet: DataPacket) -> None:
        if self._closed:
            raise TransportError("send on closed transport")
        # Packing is the validation and the size; nobody reads the bytes.
        size = HEADER_SIZE + len(encode_payload(packet))
        self.bytes_sent += size
        self.packets_sent += 1
        self._outbox.append((packet, size))

    def charge(self, size: int) -> None:
        """Count one frame of ``size`` bytes (see
        :func:`~repro.core.packets.frame_size`) as sent by this end and
        received by its peer, without building or queueing it: the frame
        a method call stood in for."""
        if self._closed:
            raise TransportError("send on closed transport")
        self.bytes_sent += size
        self.packets_sent += 1
        self.peer.bytes_received += size

    def send_wire(self, wire: bytes) -> None:
        if self._closed:
            raise TransportError("send on closed transport")
        self.bytes_sent += len(wire)
        self.packets_sent += 1
        self._outbox.append(wire)

    @property
    def pending(self) -> bool:
        """Whether anything waits at this end to be received."""
        return bool(self._inbox)

    def drain(self) -> list[DataPacket]:
        if self._closed:
            raise TransportError("recv on closed transport")
        if not self._inbox:
            return []
        return super().drain()

    def recv(self) -> DataPacket | None:
        if self._closed:
            raise TransportError("recv on closed transport")
        while self._inbox:
            item = self._inbox.popleft()
            if isinstance(item, tuple):
                packet, size = item
                self.bytes_received += size
                return packet
            self.bytes_received += len(item)
            try:
                return decode_packet(item)
            except PacketError:
                self.corrupt_packets += 1
        return None

    def close(self) -> None:
        self._closed = True


class TcpTransport(Transport):
    """Framed packet transport over a connected TCP socket."""

    def __init__(self, sock: socket.socket, send_timeout: float = 5.0):
        self._sock = sock
        self._sock.setblocking(False)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._buffer = bytearray()
        self._closed = False
        self.send_timeout = send_timeout
        self.bytes_sent = 0
        self.bytes_received = 0
        self.packets_sent = 0
        self.corrupt_packets = 0

    def send(self, packet: DataPacket) -> None:
        self.send_wire(encode_packet(packet))

    def send_wire(self, wire: bytes) -> None:
        if self._closed:
            raise TransportError("send on closed transport")
        self.bytes_sent += len(wire)
        self.packets_sent += 1
        deadline = time.monotonic() + self.send_timeout  # repro: allow[DET002] I/O deadline
        view = memoryview(wire)
        while view:
            try:
                sent = self._sock.send(view)
            except BlockingIOError:
                # Kernel send buffer full: wait for writability with a
                # bounded deadline instead of busy-spinning.
                remaining = deadline - time.monotonic()  # repro: allow[DET002] I/O deadline
                if remaining <= 0:
                    raise TransportError(
                        f"TCP send stalled for {self.send_timeout}s (peer not reading)"
                    ) from None
                select.select([], [self._sock], [], min(remaining, 0.05))
                continue
            except OSError as exc:
                raise TransportError(f"TCP send failed: {exc}") from exc
            view = view[sent:]

    def _fill(self) -> None:
        while True:
            try:
                chunk = self._sock.recv(65536)
            except BlockingIOError:
                return
            except OSError as exc:
                raise TransportError(f"TCP recv failed: {exc}") from exc
            if not chunk:
                return
            self._buffer.extend(chunk)
            self.bytes_received += len(chunk)

    def _resync(self) -> None:
        """Recover framing after a corrupted header: skip to the next magic."""
        index = self._buffer.find(struct.pack("<H", MAGIC), 1)
        if index >= 0:
            del self._buffer[:index]
        else:
            # Keep the last byte: it may be the first half of a magic that
            # arrives split across reads.
            del self._buffer[: len(self._buffer) - 1]

    def recv(self) -> DataPacket | None:
        if self._closed:
            raise TransportError("recv on closed transport")
        self._fill()
        while True:
            if len(self._buffer) < HEADER_SIZE:
                return None
            try:
                _, length = decode_header(bytes(self._buffer[:HEADER_SIZE]))
            except PacketError:
                self.corrupt_packets += 1
                self._resync()
                continue
            total = HEADER_SIZE + length
            if len(self._buffer) < total:
                return None
            wire = bytes(self._buffer[:total])
            del self._buffer[:total]
            try:
                return decode_packet(wire)
            except PacketError:
                self.corrupt_packets += 1

    def close(self) -> None:
        self._closed = True
        try:
            self._sock.close()
        except OSError:
            pass


class FaultyTransport(Transport):
    """Decorator injecting wire-level faults into any transport's sends.

    Drop/corrupt/duplicate decisions come from the shared
    :class:`~repro.core.faults.FaultInjector`; delayed frames are held
    here and released once the injector's step counter has advanced by
    the rule's ``delay_steps``.
    """

    def __init__(self, inner: Transport, injector: FaultInjector):
        self.inner = inner
        self.injector = injector
        self._delayed: list[tuple[int, bytes]] = []

    def _release_due(self) -> None:
        if not self._delayed:
            return
        step = self.injector.step
        due = [wire for release, wire in self._delayed if release <= step]
        if due:
            self._delayed = [
                (release, wire) for release, wire in self._delayed if release > step
            ]
            for wire in due:
                self.inner.send_wire(wire)

    def send(self, packet: DataPacket) -> None:
        self._release_due()
        decision = self.injector.decide(packet.ptype)
        if decision.drop:
            return
        wire = encode_packet(packet)
        if decision.corrupt:
            wire = self.injector.corrupt_wire(wire)
        if decision.delay_steps > 0:
            self._delayed.append((self.injector.step + decision.delay_steps, wire))
            return
        self.inner.send_wire(wire)
        if decision.duplicate:
            self.inner.send_wire(wire)

    def send_wire(self, wire: bytes) -> None:
        self._release_due()
        self.inner.send_wire(wire)

    def recv(self) -> DataPacket | None:
        self._release_due()
        return self.inner.recv()

    def close(self) -> None:
        self.inner.close()

    @property
    def pending_delayed(self) -> int:
        return len(self._delayed)

    # Counters live on the wrapped endpoint.
    @property
    def bytes_sent(self) -> int:
        return self.inner.bytes_sent

    @property
    def bytes_received(self) -> int:
        return self.inner.bytes_received

    @property
    def packets_sent(self) -> int:
        return self.inner.packets_sent

    @property
    def corrupt_packets(self) -> int:
        return self.inner.corrupt_packets


def transport_pair(kind: str = "inprocess") -> tuple[Transport, Transport]:
    """Create both ends of a connected link.

    ``kind`` is ``"inprocess"`` or ``"tcp"`` (localhost loopback).
    """
    if kind == "inprocess":
        a_to_b: deque[_Queued] = deque()
        b_to_a: deque[_Queued] = deque()
        a = InProcessTransport(outbox=a_to_b, inbox=b_to_a)
        b = InProcessTransport(outbox=b_to_a, inbox=a_to_b)
        a.peer, b.peer = b, a
        return a, b
    if kind == "tcp":
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        client = None
        try:
            listener.bind(("127.0.0.1", 0))
            listener.listen(1)
            port = listener.getsockname()[1]
            client = socket.create_connection(("127.0.0.1", port), timeout=5.0)
            server, _addr = listener.accept()
        except OSError as exc:
            if client is not None:
                client.close()
            raise TransportError(f"TCP loopback setup failed: {exc}") from exc
        finally:
            listener.close()
        return TcpTransport(client), TcpTransport(server)
    raise TransportError(f"unknown transport kind {kind!r}")
