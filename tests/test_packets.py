"""Tests for the RoSE packet protocol, including round-trip properties."""

from __future__ import annotations

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import packets as pk
from repro.core.packets import (
    DataPacket,
    PacketType,
    decode_header,
    decode_packet,
    encode_packet,
)
from repro.errors import PacketError

finite = st.floats(allow_nan=False, allow_infinity=False, width=32).map(float)


class TestHeaders:
    def test_header_layout(self):
        wire = encode_packet(pk.imu_request())
        assert len(wire) == pk.HEADER_SIZE
        magic, ptype, flags, length = struct.unpack(pk.HEADER_FORMAT, wire)
        assert magic == pk.MAGIC
        assert ptype == PacketType.IMU_REQ
        assert length == 0

    def test_bad_magic_rejected(self):
        wire = bytearray(encode_packet(pk.imu_request()))
        wire[0] ^= 0xFF
        with pytest.raises(PacketError):
            decode_header(bytes(wire))

    def test_unknown_type_rejected(self):
        wire = struct.pack(pk.HEADER_FORMAT, pk.MAGIC, 0xEE, 0, 0)
        with pytest.raises(PacketError):
            decode_header(wire)

    def test_truncated_header_rejected(self):
        with pytest.raises(PacketError):
            decode_header(b"\x00\x01")

    def test_oversized_length_rejected(self):
        wire = struct.pack(pk.HEADER_FORMAT, pk.MAGIC, int(PacketType.IMU_REQ), 0, pk.MAX_PAYLOAD + 1)
        with pytest.raises(PacketError):
            decode_header(wire)

    def test_truncated_payload_rejected(self):
        wire = encode_packet(pk.depth_response(5.0))
        with pytest.raises(PacketError):
            decode_packet(wire[:-2])


class TestSyncDataSplit:
    def test_sync_types_flagged(self):
        assert PacketType.SYNC_GRANT.is_sync
        assert PacketType.SYNC_SET_STEPS.is_sync
        assert not PacketType.SYNC_GRANT.is_data

    def test_data_types_flagged(self):
        for ptype in (PacketType.CAMERA_REQ, PacketType.TARGET_CMD, PacketType.IMU_RESP):
            assert ptype.is_data
            assert not ptype.is_sync


class TestTypedRoundTrips:
    def test_sync_set_steps(self):
        packet = decode_packet(encode_packet(pk.sync_set_steps(10_000_000, 1)))
        assert packet.ptype == PacketType.SYNC_SET_STEPS
        assert packet.values == (10_000_000, 1)

    def test_sync_grant_and_done(self):
        grant = decode_packet(encode_packet(pk.sync_grant(7)))
        assert grant.values == (7,)
        done = decode_packet(encode_packet(pk.sync_done(7, 123456)))
        assert done.values == (7, 123456)

    def test_empty_payload_types(self):
        for ctor in (pk.imu_request, pk.camera_request, pk.depth_request, pk.state_request,
                     pk.sync_reset, pk.sync_shutdown):
            packet = decode_packet(encode_packet(ctor()))
            assert packet.values == ()
            assert packet.raw == b""

    @given(finite, finite, finite, finite, finite)
    @settings(max_examples=30)
    def test_imu_response_round_trip(self, ax, ay, az, gz, ts):
        packet = decode_packet(encode_packet(pk.imu_response(ax, ay, az, gz, ts)))
        assert packet.values == pytest.approx((ax, ay, az, gz, ts))

    @given(finite, finite, finite, finite)
    @settings(max_examples=30)
    def test_target_command_round_trip(self, vf, vl, yr, alt):
        packet = decode_packet(encode_packet(pk.target_command(vf, vl, yr, alt)))
        assert packet.values == pytest.approx((vf, vl, yr, alt))

    def test_state_response_round_trip(self):
        packet = decode_packet(
            encode_packet(pk.state_response(1, 2, 3, 0.5, 4, 5, 0.1, 9.0))
        )
        assert packet.values == pytest.approx((1, 2, 3, 0.5, 4, 5, 0.1, 9.0))

    def test_depth_response_round_trip(self):
        packet = decode_packet(encode_packet(pk.depth_response(12.5)))
        assert packet.values == (12.5,)


class TestCameraPackets:
    def test_round_trip_with_pixels(self):
        pixels = bytes(range(48)) * 4  # 8x24
        packet = pk.camera_response(8, 24, 1.5, 0.1, -0.4, 1.6, pixels)
        decoded = decode_packet(encode_packet(packet))
        assert decoded.ptype == PacketType.CAMERA_RESP
        assert decoded.values[:2] == (8, 24)
        assert decoded.values[2] == pytest.approx(1.5)
        assert decoded.values[4] == pytest.approx(-0.4)
        assert decoded.raw == pixels

    def test_wrong_pixel_count_rejected(self):
        with pytest.raises(PacketError):
            encode_packet(pk.camera_response(8, 24, 0.0, 0.0, 0.0, 1.6, b"123"))

    def test_truncated_camera_metadata_rejected(self):
        wire = struct.pack(
            pk.HEADER_FORMAT, pk.MAGIC, int(PacketType.CAMERA_RESP), 0, 4
        ) + b"\x00" * 4
        with pytest.raises(PacketError):
            decode_packet(wire)

    @given(st.integers(1, 16), st.integers(1, 16))
    @settings(max_examples=20)
    def test_camera_pixels_any_size(self, h, w):
        pixels = bytes((i % 251 for i in range(h * w)))
        decoded = decode_packet(
            encode_packet(pk.camera_response(h, w, 0.0, 0.0, 0.0, 1.6, pixels))
        )
        assert decoded.raw == pixels

    def test_payload_bytes_property(self):
        pixels = b"\x00" * 100
        packet = pk.camera_response(10, 10, 0.0, 0.0, 0.0, 1.6, pixels)
        assert packet.payload_bytes == pk.CAMERA_META_SIZE + 100

    def test_payload_bytes_is_measured_once(self, monkeypatch):
        measured = []
        size_once = vars(DataPacket)["payload_bytes"]
        measure = size_once._measure
        monkeypatch.setattr(size_once, "_measure", lambda p: measured.append(p) or measure(p))
        packet = pk.imu_response(1.0, 2.0, 3.0, 4.0, 5.0)
        twin = pk.imu_response(1.0, 2.0, 3.0, 4.0, 5.0)
        sizes = [packet.payload_bytes for _ in range(4)]
        assert sizes == [len(pk.encode_payload(packet))] * 4
        assert measured == [packet]
        # The kept size is no field: equality and hashing ignore it.
        assert packet == twin and hash(packet) == hash(twin)
        assert twin.payload_bytes == sizes[0] and len(measured) == 2

    def test_malformed_payload_bytes_raises_every_read(self):
        packet = DataPacket(PacketType.DEPTH_RESP, (1.0, 2.0))
        for _ in range(2):
            with pytest.raises(PacketError):
                _ = packet.payload_bytes


class TestEncodingErrors:
    def test_wrong_value_count_rejected(self):
        with pytest.raises(PacketError):
            encode_packet(DataPacket(PacketType.DEPTH_RESP, (1.0, 2.0)))

    def test_raw_payload_on_typed_packet_rejected(self):
        with pytest.raises(PacketError):
            encode_packet(DataPacket(PacketType.IMU_REQ, (), raw=b"junk"))

    def test_wrong_payload_size_on_decode(self):
        wire = struct.pack(
            pk.HEADER_FORMAT, pk.MAGIC, int(PacketType.DEPTH_RESP), 0, 4
        ) + b"\x00" * 4
        with pytest.raises(PacketError):
            decode_packet(wire)


# ---------------------------------------------------------------------------
# Typed constructors hold what the wire would deliver
# ---------------------------------------------------------------------------
#: (integer-field input, float-field input) per kind of caller value.
INPUT_KINDS = {
    "int": (7, 9),
    "float": (7.0, 1.5),
    "numpy": (np.int64(7), np.float64(0.1)),
    "numpy32": (np.uint16(7), np.float32(0.25)),
}

#: Every typed constructor, called with integer fields ``i`` and ``d``
#: fields ``f`` (pixel and range tails sized to match).
CONSTRUCTORS = {
    "sync_set_steps": lambda i, f: pk.sync_set_steps(i, i),
    "sync_grant": lambda i, f: pk.sync_grant(i),
    "sync_done": lambda i, f: pk.sync_done(i, i),
    "sync_reset": lambda i, f: pk.sync_reset(),
    "sync_shutdown": lambda i, f: pk.sync_shutdown(),
    "imu_request": lambda i, f: pk.imu_request(),
    "imu_response": lambda i, f: pk.imu_response(f, f, f, f, f),
    "camera_request": lambda i, f: pk.camera_request(),
    "camera_response": lambda i, f: pk.camera_response(i, i, f, f, f, f, bytes(range(49))),
    "depth_request": lambda i, f: pk.depth_request(),
    "depth_response": lambda i, f: pk.depth_response(f),
    "state_request": lambda i, f: pk.state_request(),
    "state_response": lambda i, f: pk.state_response(f, f, f, f, f, f, f, f),
    "target_command": lambda i, f: pk.target_command(f, f, f, f),
    "lidar_request": lambda i, f: pk.lidar_request(),
    "lidar_response": lambda i, f: pk.lidar_response(
        f, f, np.arange(5, dtype=np.float32).tobytes()
    ),
}


def assert_same_packet(got: DataPacket, want: DataPacket) -> None:
    """Equal field for field and type for type."""
    assert got.ptype is want.ptype
    assert got.values == want.values
    assert [type(v) for v in got.values] == [type(v) for v in want.values]
    assert got.raw == want.raw
    assert type(got.raw) is type(want.raw)


class TestConstructorTypes:
    def test_every_packet_type_has_a_constructor(self):
        built = {ctor(7, 1.5).ptype for ctor in CONSTRUCTORS.values()}
        assert built == set(PacketType)

    @pytest.mark.parametrize("kind", sorted(INPUT_KINDS))
    @pytest.mark.parametrize("name", sorted(CONSTRUCTORS))
    def test_fields_have_their_decoded_types(self, name, kind):
        packet = CONSTRUCTORS[name](*INPUT_KINDS[kind])
        assert_same_packet(packet, decode_packet(encode_packet(packet)))

    @pytest.mark.parametrize("name", sorted(CONSTRUCTORS))
    def test_payload_and_frame_size_match_the_frame(self, name):
        packet = CONSTRUCTORS[name](7, 1.5)
        wire = encode_packet(packet)
        assert pk.encode_payload(packet) == wire[pk.HEADER_SIZE :]
        assert pk.frame_size(packet.ptype) + len(packet.raw) == len(wire)


# ---------------------------------------------------------------------------
# Property-based wire conformance (truncation, bit flips, CRC detection)
# ---------------------------------------------------------------------------
nonzero = finite.filter(lambda v: v != 0.0)

#: Any typed packet the protocol can put on the wire.  Float fields are
#: nonzero so every payload bit is significant (0.0 and -0.0 compare
#: equal, which would blur the corruption properties below).
any_packet = st.one_of(
    st.builds(pk.imu_response, nonzero, nonzero, nonzero, nonzero, nonzero),
    st.builds(pk.state_response, *([nonzero] * 8)),
    st.builds(pk.target_command, nonzero, nonzero, nonzero, nonzero),
    st.builds(pk.depth_response, nonzero),
    st.builds(pk.sync_grant, st.integers(0, 2**31 - 1)),
    st.builds(pk.sync_done, st.integers(0, 2**31 - 1), st.integers(0, 2**31 - 1)),
    st.builds(pk.sync_set_steps, st.integers(1, 2**31 - 1), st.integers(1, 1000)),
    st.builds(
        lambda h, w, ts, he, lo, hw: pk.camera_response(
            h, w, ts, he, lo, hw, bytes((i % 251 for i in range(h * w)))
        ),
        st.integers(1, 8),
        st.integers(1, 8),
        nonzero,
        nonzero,
        nonzero,
        nonzero,
    ),
)


class TestWireProperties:
    """Conformance properties of the framing layer itself."""

    @given(any_packet)
    @settings(max_examples=60)
    def test_encode_decode_round_trip(self, packet):
        decoded = decode_packet(encode_packet(packet))
        assert decoded.ptype == packet.ptype
        assert len(decoded.values) == len(packet.values)
        for want, got in zip(packet.values, decoded.values):
            assert got == pytest.approx(float(want))
        assert decoded.raw == packet.raw

    @given(any_packet, st.data())
    @settings(max_examples=60)
    def test_truncated_frame_always_rejected(self, packet, data):
        """Every proper prefix of a frame fails to decode — never
        misparses as a shorter valid packet."""
        wire = encode_packet(packet)
        cut = data.draw(st.integers(0, len(wire) - 1), label="cut")
        with pytest.raises(PacketError):
            decode_packet(wire[:cut])

    @given(any_packet, st.data())
    @settings(max_examples=100)
    def test_bit_flip_detected_or_faithful(self, packet, data):
        """A single flipped bit anywhere in the frame is either rejected
        (magic/type/CRC/length checks) or decodes to a packet that
        differs from the original — corruption never yields a silently
        identical decode."""
        wire = bytearray(encode_packet(packet))
        bit = data.draw(st.integers(0, len(wire) * 8 - 1), label="bit")
        wire[bit // 8] ^= 1 << (bit % 8)
        try:
            decoded = decode_packet(bytes(wire))
        except PacketError:
            return
        assert (
            decoded.ptype != packet.ptype
            or decoded.values != packet.values
            or decoded.raw != packet.raw
        )

    @given(any_packet, st.integers(0, 7))
    @settings(max_examples=40)
    def test_crc_byte_flip_always_rejected(self, packet, bit):
        """The stored CRC no longer matches the (unchanged) payload."""
        wire = bytearray(encode_packet(packet))
        wire[3] ^= 1 << bit  # byte 3 is the header CRC field
        with pytest.raises(PacketError):
            decode_packet(bytes(wire))

    @given(any_packet, st.data())
    @settings(max_examples=60)
    def test_payload_flip_changes_decode_or_rejects(self, packet, data):
        """Flips strictly inside the payload: CRC-8 catches most; any
        collision must still decode to *different* content."""
        wire = bytearray(encode_packet(packet))
        if len(wire) == pk.HEADER_SIZE:
            return  # no payload to corrupt
        byte = data.draw(
            st.integers(pk.HEADER_SIZE, len(wire) - 1), label="byte"
        )
        wire[byte] ^= 1 << data.draw(st.integers(0, 7), label="bit")
        try:
            decoded = decode_packet(bytes(wire))
        except PacketError:
            return
        assert decoded.values != packet.values or decoded.raw != packet.raw

    @given(any_packet)
    @settings(max_examples=30)
    def test_crc_is_deterministic_per_frame(self, packet):
        assert encode_packet(packet) == encode_packet(packet)
