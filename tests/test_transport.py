"""Tests for the in-process and TCP transports."""

from __future__ import annotations

import pytest

from repro.batch import run_batch
from repro.core import packets as pk
from repro.core import transport as transport_module
from repro.core.cosim import run_mission
from repro.core.packets import DataPacket, PacketType, decode_packet, encode_packet
from repro.core.transport import transport_pair
from repro.errors import PacketError, TransportError
from repro.sweep import mission_signature
from repro.verify.golden import DEFAULT_GOLDEN_DIR, config_for_record, load_record
from tests.test_mission_pins import PINS
from tests.test_packets import CONSTRUCTORS, INPUT_KINDS, assert_same_packet


@pytest.fixture(params=["inprocess", "tcp"])
def pair(request):
    a, b = transport_pair(request.param)
    yield a, b
    a.close()
    b.close()


class TestBothTransports:
    def test_send_recv(self, pair):
        a, b = pair
        a.send(pk.depth_request())
        packet = b.recv_blocking(timeout=2.0)
        assert packet.ptype == PacketType.DEPTH_REQ

    def test_recv_empty_returns_none(self, pair):
        a, b = pair
        assert b.recv() is None

    def test_bidirectional(self, pair):
        a, b = pair
        a.send(pk.camera_request())
        b.send(pk.depth_response(3.0))
        assert b.recv_blocking().ptype == PacketType.CAMERA_REQ
        assert a.recv_blocking().ptype == PacketType.DEPTH_RESP

    def test_ordering_preserved(self, pair):
        a, b = pair
        for i in range(20):
            a.send(pk.sync_grant(i))
        received = []
        while len(received) < 20:
            packet = b.recv_blocking()
            received.append(packet.values[0])
        assert received == list(range(20))

    def test_large_camera_packet(self, pair):
        a, b = pair
        pixels = bytes(i % 256 for i in range(64 * 48))
        a.send(pk.camera_response(64, 48, 0.5, 0.0, 0.0, 1.6, pixels))
        packet = b.recv_blocking(timeout=5.0)
        assert packet.raw == pixels

    def test_drain_collects_all(self, pair):
        a, b = pair
        for i in range(5):
            a.send(pk.sync_grant(i))
        import time

        time.sleep(0.05)  # let TCP bytes land
        packets = b.drain()
        assert len(packets) == 5

    def test_counters(self, pair):
        a, b = pair
        a.send(pk.depth_request())
        b.recv_blocking()
        assert a.packets_sent == 1
        assert a.bytes_sent > 0
        assert b.bytes_received > 0

    def test_recv_blocking_timeout(self, pair):
        _, b = pair
        with pytest.raises(TransportError):
            b.recv_blocking(timeout=0.05)


class TestInProcessSpecific:
    def test_closed_send_rejected(self):
        a, b = transport_pair("inprocess")
        a.close()
        with pytest.raises(TransportError):
            a.send(pk.depth_request())

    def test_closed_drain_raises_empty_or_not(self):
        # The empty-inbox shortcut must not skip the closed check.
        a, b = transport_pair("inprocess")
        b.close()
        with pytest.raises(TransportError):
            b.drain()
        a.send(pk.depth_request())
        with pytest.raises(TransportError):
            b.drain()

    def test_pending_and_empty_drain(self):
        a, b = transport_pair("inprocess")
        assert not b.pending and b.drain() == []
        a.send(pk.depth_request())
        a.send_wire(encode_packet(pk.depth_response(1.0)))
        assert b.pending
        assert [p.ptype for p in b.drain()] == [PacketType.DEPTH_REQ, PacketType.DEPTH_RESP]
        assert not b.pending and b.drain() == []
        assert b.bytes_received == a.bytes_sent


class TestInProcessObjectLink:
    """The in-process link hands over packet objects, but delivers and
    counts exactly what the wire would."""

    @pytest.mark.parametrize("kind", sorted(INPUT_KINDS))
    @pytest.mark.parametrize("name", sorted(CONSTRUCTORS))
    def test_delivers_the_wire_image(self, name, kind):
        a, b = transport_pair("inprocess")
        packet = CONSTRUCTORS[name](*INPUT_KINDS[kind])
        wire = encode_packet(packet)
        a.send(packet)
        assert_same_packet(b.recv(), decode_packet(wire))
        assert a.bytes_sent == b.bytes_received == len(wire)
        assert a.packets_sent == 1
        assert b.recv() is None

    @pytest.mark.parametrize(
        "packet",
        [
            pk.camera_response(8, 24, 0.0, 0.0, 0.0, 1.6, b"123"),  # wrong pixel count
            pk.sync_grant(-1),  # negative step index
            DataPacket(PacketType.TARGET_CMD, ("fast", 0.0, 0.0, 1.5)),  # str in a d field
        ],
        ids=["pixel-count", "negative-step", "str-field"],
    )
    def test_send_raises_what_encode_raises(self, packet):
        with pytest.raises(PacketError) as encoded:
            encode_packet(packet)
        a, b = transport_pair("inprocess")
        with pytest.raises(PacketError) as sent:
            a.send(packet)
        assert str(sent.value) == str(encoded.value)
        assert (a.bytes_sent, a.packets_sent) == (0, 0)
        assert b.recv() is None

    def test_pinned_missions_never_decode(self, monkeypatch):
        def no_decode(_wire):
            raise AssertionError("the in-process link decoded a frame")

        monkeypatch.setattr(transport_module, "decode_packet", no_decode)
        config, signature = PINS["sshape-collisions"]
        assert mission_signature(run_mission(config)) == signature
        names = ["sshape-collisions", "tunnel-goal"]
        batched = [run_batch([PINS[name][0]])[0] for name in names]
        assert [mission_signature(r) for r in batched] == [PINS[n][1] for n in names]

    def test_corrupting_link_still_decodes_its_frames(self, monkeypatch):
        # Fault injection carries wire bytes end to end: every frame is
        # decoded and CRC-checked, and corrupted ones are discarded.
        record = load_record(DEFAULT_GOLDEN_DIR, "tunnel-dnn-faulty-corrupt")
        outcomes = []

        def counting_decode(wire):
            try:
                packet = decode_packet(wire)
            except PacketError:
                outcomes.append("discarded")
                raise
            outcomes.append("decoded")
            return packet

        monkeypatch.setattr(transport_module, "decode_packet", counting_decode)
        result = run_mission(config_for_record(record))
        discards = record.payload["sync_stats"]["faults"]["corrupt_discards"]
        assert discards > 0
        assert outcomes.count("discarded") == discards
        assert result.sync_stats.corrupt_discards == discards
        assert outcomes.count("decoded") > 0
        assert mission_signature(result) == record.signature


class TestTcpSpecific:
    def test_partial_frame_buffered(self):
        """A receiver must not yield a packet until the frame completes."""
        a, b = transport_pair("tcp")
        try:
            wire = pk.encode_packet(pk.depth_response(7.0))
            # Send the frame in two raw halves.
            a._sock.setblocking(True)
            a._sock.sendall(wire[: len(wire) // 2])
            import time

            time.sleep(0.05)
            assert b.recv() is None
            a._sock.sendall(wire[len(wire) // 2 :])
            packet = b.recv_blocking(timeout=2.0)
            assert packet.values == (7.0,)
        finally:
            a.close()
            b.close()

    def test_many_packets_one_read(self):
        """Multiple frames arriving in one TCP segment all decode."""
        a, b = transport_pair("tcp")
        try:
            for i in range(10):
                a.send(pk.sync_grant(i))
            got = []
            while len(got) < 10:
                got.append(b.recv_blocking(timeout=2.0).values[0])
            assert got == list(range(10))
        finally:
            a.close()
            b.close()


def test_unknown_kind_rejected():
    with pytest.raises(TransportError):
        transport_pair("carrier-pigeon")
