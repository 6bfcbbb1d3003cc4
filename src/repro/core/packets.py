"""The RoSE packet protocol.

Section 3.4.1: "TCP Packets are used to transmit serialized synchronization
and data packets.  Packets consist of a header, containing the packet type
and number of bytes, as well as a payload containing the serialized
contents of the message."

Two packet families exist:

* **Synchronization packets** "communicate information about the simulation
  state, such as the number of cycles FireSim can advance every
  synchronization, and communicate with RoSE BRIDGE but not the modeled
  SoC".
* **Data packets** "encode sensor and actuator data" and "are the only
  packets that are visible to the simulated SoC".

Wire format: a fixed 8-byte header ``(magic u16, type u8, crc u8,
length u32)`` followed by ``length`` payload bytes.  Typed payloads are
struct-packed little-endian.  The header's third byte is a CRC over the
packet type and payload (the low byte of CRC-32): a frame corrupted in
flight fails :func:`decode_packet` with a :class:`PacketError` and the
transports discard it instead of delivering garbage.  Camera responses
carry the image as a raw uint8 payload after a fixed metadata prefix; the
metadata includes the capture-time course coordinates (the "image
metadata" the behavioural classifier consumes — see DESIGN.md).
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from enum import IntEnum
from typing import Callable, overload

from repro.errors import PacketError

MAGIC = 0x5253  # "RS"
HEADER_FORMAT = "<HBBI"
HEADER_SIZE = struct.calcsize(HEADER_FORMAT)

#: Hard cap on payload size; a corrupted length field must not allocate
#: unbounded buffers on the receive path.
MAX_PAYLOAD = 1 << 22


class PacketType(IntEnum):
    """All packet types; values below 0x40 are synchronization packets."""

    # -- synchronization (bridge control, invisible to the SoC) ---------
    SYNC_SET_STEPS = 0x01  # cycles the RTL sim may advance per sync
    SYNC_GRANT = 0x02  # grant one synchronization step
    SYNC_DONE = 0x03  # RTL finished its granted cycles
    SYNC_RESET = 0x04
    SYNC_SHUTDOWN = 0x05
    # -- data (sensor / actuator traffic, visible to the SoC) -----------
    IMU_REQ = 0x40
    IMU_RESP = 0x41
    CAMERA_REQ = 0x42
    CAMERA_RESP = 0x43
    DEPTH_REQ = 0x44
    DEPTH_RESP = 0x45
    STATE_REQ = 0x46
    STATE_RESP = 0x47
    TARGET_CMD = 0x48
    LIDAR_REQ = 0x49
    LIDAR_RESP = 0x4A

    @property
    def is_sync(self) -> bool:
        return self.value < 0x40

    @property
    def is_data(self) -> bool:
        return not self.is_sync


#: The data packet types.  The per-packet paths test membership here: on
#: CPython 3.11 ``ptype.is_data`` costs about 0.5 µs (two properties over
#: ``Enum.value``), a frozenset lookup under 0.05 µs.  For the same
#: reason they compare against module-level member aliases, not
#: ``PacketType.X``, whose class attribute lookup costs about 0.1 µs.
DATA_TYPES: frozenset[PacketType] = frozenset(t for t in PacketType if t.is_data)
_CAMERA_RESP = PacketType.CAMERA_RESP
_LIDAR_RESP = PacketType.LIDAR_RESP


#: Lidar response: metadata prefix then raw float32 ranges.
LIDAR_META_FORMAT = "<Hdd"  # beam count, fov_rad, timestamp
LIDAR_META_SIZE = struct.calcsize(LIDAR_META_FORMAT)

#: Camera response: metadata prefix then raw uint8 pixels.
CAMERA_META_FORMAT = "<HHd3d"  # height, width, timestamp, heading_err, lat_off, half_width
CAMERA_META_SIZE = struct.calcsize(CAMERA_META_FORMAT)

#: struct formats for fixed-layout payloads.  Total over PacketType (lint
#: rule PROTO001): the two raw-carrying responses list their metadata
#: prefix here and are special-cased in encode/decode for the raw tail.
_PAYLOAD_FORMATS: dict[PacketType, str] = {
    PacketType.SYNC_SET_STEPS: "<QI",  # cycles per sync, frames per sync
    PacketType.SYNC_GRANT: "<Q",  # step index
    PacketType.SYNC_DONE: "<QQ",  # step index, cycles executed
    PacketType.SYNC_RESET: "",
    PacketType.SYNC_SHUTDOWN: "",
    PacketType.IMU_REQ: "",
    PacketType.IMU_RESP: "<5d",  # ax, ay, az, gyro_z, timestamp
    PacketType.CAMERA_REQ: "",
    PacketType.CAMERA_RESP: CAMERA_META_FORMAT,  # + raw uint8 pixels
    PacketType.DEPTH_REQ: "",
    PacketType.DEPTH_RESP: "<d",
    PacketType.STATE_REQ: "",
    PacketType.STATE_RESP: "<8d",  # x, y, z, yaw, u, v, r, timestamp
    PacketType.TARGET_CMD: "<4d",  # v_forward, v_lateral, yaw_rate, altitude
    PacketType.LIDAR_REQ: "",
    PacketType.LIDAR_RESP: LIDAR_META_FORMAT,  # + raw float32 ranges
}


#: (payload size, field count) per fixed-layout type — lets
#: ``payload_bytes`` answer without serializing.  The raw-carrying
#: responses add their variable tail on top of the metadata size.
_PAYLOAD_SIZES: dict[PacketType, tuple[int, int]] = {
    ptype: (struct.calcsize(fmt), len(struct.unpack(fmt, bytes(struct.calcsize(fmt)))))
    for ptype, fmt in _PAYLOAD_FORMATS.items()
}


class _SizeOnce:
    """A packet's size, measured on its first read and then kept.

    ``functools.cached_property`` does the same, but before Python 3.12 it
    takes a lock on every first read, which costs more than the repeat
    reads save.  The first read stores the size in the packet's
    ``__dict__`` (a frozen dataclass has one), where every later read finds
    it without calling this non-data descriptor.  Equality, hashing and
    ``dataclasses.fields`` ignore the stored size.
    """

    def __init__(self, measure: Callable[[DataPacket], int]) -> None:
        self._measure = measure
        self._name = measure.__name__
        self.__doc__ = measure.__doc__

    @overload
    def __get__(self, packet: None, owner: type | None = None) -> _SizeOnce:
        ...

    @overload
    def __get__(self, packet: DataPacket, owner: type | None = None) -> int:
        ...

    def __get__(self, packet: DataPacket | None, owner: type | None = None) -> _SizeOnce | int:
        if packet is None:
            return self
        size = packet.__dict__[self._name] = self._measure(packet)
        return size


@dataclass(frozen=True)
class DataPacket:
    """A decoded packet: type plus either typed fields or raw payload."""

    ptype: PacketType
    values: tuple[float, ...] = ()
    raw: bytes = b""

    @_SizeOnce
    def payload_bytes(self) -> int:
        # Measured once per packet (a frozen packet's size never changes):
        # the bridge and the SoC's MMIO cost path ask for it four times on
        # each way through the bridge.
        # Size from the layout table when the shape is well-formed (the
        # overwhelmingly common case) — a full encode just to measure a
        # packet is pure overhead on the SoC's MMIO cost path.  Anything
        # irregular falls through to encode_payload for its exact error.
        layout = _PAYLOAD_SIZES.get(self.ptype)
        if layout is not None and len(self.values) == layout[1]:
            if self.ptype is _CAMERA_RESP:
                if len(self.raw) == int(self.values[0]) * int(self.values[1]):
                    return layout[0] + len(self.raw)
            elif self.ptype is _LIDAR_RESP:
                if len(self.raw) == int(self.values[0]) * 4:
                    return layout[0] + len(self.raw)
            elif not self.raw:
                return layout[0]
        return len(encode_payload(self))


def frame_size(ptype: PacketType) -> int:
    """Wire size (header + payload) of a ``ptype`` frame, from the
    fixed-layout table; for the raw-carrying responses, with no raw tail."""
    return HEADER_SIZE + _PAYLOAD_SIZES[ptype][0]


def encode_payload(packet: DataPacket) -> bytes:
    """Validate a packet and pack its payload (the frame without header).

    Raises the :class:`PacketError` a malformed packet earns on the wire;
    :func:`encode_packet` wraps the result in the CRC-carrying header.
    """
    ptype = packet.ptype
    if ptype == PacketType.CAMERA_RESP:
        if len(packet.values) != 6:
            raise PacketError(
                "CAMERA_RESP requires (height, width, timestamp, heading_err, "
                f"lat_off, half_width); got {len(packet.values)} values"
            )
        height, width = int(packet.values[0]), int(packet.values[1])
        if len(packet.raw) != height * width:
            raise PacketError(
                f"CAMERA_RESP pixel payload is {len(packet.raw)} bytes; "
                f"expected {height}x{width}={height * width}"
            )
        payload = struct.pack(CAMERA_META_FORMAT, *packet.values) + packet.raw
    elif ptype == PacketType.LIDAR_RESP:
        if len(packet.values) != 3:
            raise PacketError(
                "LIDAR_RESP requires (beam_count, fov_rad, timestamp); "
                f"got {len(packet.values)} values"
            )
        beams = int(packet.values[0])
        if len(packet.raw) != beams * 4:
            raise PacketError(
                f"LIDAR_RESP range payload is {len(packet.raw)} bytes; "
                f"expected {beams} float32 beams = {beams * 4}"
            )
        payload = struct.pack(LIDAR_META_FORMAT, *packet.values) + packet.raw
    else:
        try:
            fmt = _PAYLOAD_FORMATS[ptype]
        except KeyError:
            raise PacketError(f"no payload format for packet type {ptype!r}") from None
        try:
            payload = struct.pack(fmt, *packet.values)
        except struct.error as exc:
            raise PacketError(f"cannot pack {ptype.name} payload: {exc}") from exc
        if packet.raw:
            raise PacketError(f"{ptype.name} does not carry a raw payload")
    if len(payload) > MAX_PAYLOAD:
        raise PacketError(f"payload of {len(payload)} bytes exceeds MAX_PAYLOAD")
    return payload


def encode_packet(packet: DataPacket) -> bytes:
    """Serialize a packet to wire bytes (header + payload)."""
    payload = encode_payload(packet)
    type_value = int(packet.ptype)
    crc = payload_crc(type_value, payload)
    header = struct.pack(HEADER_FORMAT, MAGIC, type_value, crc, len(payload))
    return header + payload


def payload_crc(type_value: int, payload: bytes) -> int:
    """8-bit integrity check carried in the header (low byte of CRC-32,
    mixed with the type so a corrupted type byte is also caught)."""
    return (zlib.crc32(payload) ^ type_value) & 0xFF


def decode_header(data: bytes) -> tuple[PacketType, int]:
    """Parse a packet header; returns (type, payload length)."""
    if len(data) < HEADER_SIZE:
        raise PacketError(f"header truncated: {len(data)} < {HEADER_SIZE} bytes")
    magic, type_value, _flags, length = struct.unpack(HEADER_FORMAT, data[:HEADER_SIZE])
    if magic != MAGIC:
        raise PacketError(f"bad magic 0x{magic:04x}")
    try:
        ptype = PacketType(type_value)
    except ValueError:
        raise PacketError(f"unknown packet type 0x{type_value:02x}") from None
    if length > MAX_PAYLOAD:
        raise PacketError(f"declared payload of {length} bytes exceeds MAX_PAYLOAD")
    return ptype, length


def decode_packet(data: bytes) -> DataPacket:
    """Deserialize one packet from wire bytes (CRC-checked)."""
    ptype, length = decode_header(data)
    payload = data[HEADER_SIZE : HEADER_SIZE + length]
    if len(payload) != length:
        raise PacketError(
            f"payload truncated: have {len(payload)}, header declares {length}"
        )
    crc = data[3]
    if crc != payload_crc(int(ptype), bytes(payload)):
        raise PacketError(f"{ptype.name} payload CRC mismatch")
    if ptype == PacketType.CAMERA_RESP:
        if length < CAMERA_META_SIZE:
            raise PacketError("CAMERA_RESP payload shorter than its metadata")
        values = struct.unpack(CAMERA_META_FORMAT, payload[:CAMERA_META_SIZE])
        pixels = payload[CAMERA_META_SIZE:]
        height, width = int(values[0]), int(values[1])
        if len(pixels) != height * width:
            raise PacketError(
                f"CAMERA_RESP pixels: {len(pixels)} bytes for {height}x{width}"
            )
        return DataPacket(ptype=ptype, values=values, raw=pixels)
    if ptype == PacketType.LIDAR_RESP:
        if length < LIDAR_META_SIZE:
            raise PacketError("LIDAR_RESP payload shorter than its metadata")
        values = struct.unpack(LIDAR_META_FORMAT, payload[:LIDAR_META_SIZE])
        ranges = payload[LIDAR_META_SIZE:]
        beams = int(values[0])
        if len(ranges) != beams * 4:
            raise PacketError(
                f"LIDAR_RESP ranges: {len(ranges)} bytes for {beams} beams"
            )
        return DataPacket(ptype=ptype, values=values, raw=ranges)
    fmt = _PAYLOAD_FORMATS[ptype]
    expected = struct.calcsize(fmt)
    if length != expected:
        raise PacketError(
            f"{ptype.name} payload is {length} bytes, expected {expected}"
        )
    return DataPacket(ptype=ptype, values=struct.unpack(fmt, payload) if fmt else ())


# ---------------------------------------------------------------------------
# Typed constructors (the vocabulary the rest of the system speaks).  Each
# field is normalized to the type decode_packet returns for it (``int``
# for integer fields, ``float`` for ``d`` fields), so a packet handed over
# as an object equals its decoded wire image field for field and type for
# type.
# ---------------------------------------------------------------------------
def sync_set_steps(cycles: int, frames: int) -> DataPacket:
    return DataPacket(PacketType.SYNC_SET_STEPS, (int(cycles), int(frames)))


def sync_grant(step_index: int) -> DataPacket:
    return DataPacket(PacketType.SYNC_GRANT, (int(step_index),))


def sync_done(step_index: int, cycles_executed: int) -> DataPacket:
    return DataPacket(PacketType.SYNC_DONE, (int(step_index), int(cycles_executed)))


def sync_reset() -> DataPacket:
    return DataPacket(PacketType.SYNC_RESET)


def sync_shutdown() -> DataPacket:
    return DataPacket(PacketType.SYNC_SHUTDOWN)


def imu_request() -> DataPacket:
    return DataPacket(PacketType.IMU_REQ)


def imu_response(ax: float, ay: float, az: float, gyro_z: float, timestamp: float) -> DataPacket:
    return DataPacket(
        PacketType.IMU_RESP,
        (float(ax), float(ay), float(az), float(gyro_z), float(timestamp)),
    )


def camera_request() -> DataPacket:
    return DataPacket(PacketType.CAMERA_REQ)


def camera_response(
    height: int,
    width: int,
    timestamp: float,
    heading_error: float,
    lateral_offset: float,
    half_width: float,
    pixels: bytes,
) -> DataPacket:
    return DataPacket(
        PacketType.CAMERA_RESP,
        (
            int(height),
            int(width),
            float(timestamp),
            float(heading_error),
            float(lateral_offset),
            float(half_width),
        ),
        raw=bytes(pixels),
    )


def depth_request() -> DataPacket:
    return DataPacket(PacketType.DEPTH_REQ)


def depth_response(depth: float) -> DataPacket:
    return DataPacket(PacketType.DEPTH_RESP, (float(depth),))


def state_request() -> DataPacket:
    return DataPacket(PacketType.STATE_REQ)


def state_response(
    x: float, y: float, z: float, yaw: float, u: float, v: float, r: float, timestamp: float
) -> DataPacket:
    return DataPacket(
        PacketType.STATE_RESP,
        (
            float(x),
            float(y),
            float(z),
            float(yaw),
            float(u),
            float(v),
            float(r),
            float(timestamp),
        ),
    )


def target_command(
    v_forward: float, v_lateral: float, yaw_rate: float, altitude: float
) -> DataPacket:
    return DataPacket(
        PacketType.TARGET_CMD,
        (float(v_forward), float(v_lateral), float(yaw_rate), float(altitude)),
    )


def lidar_request() -> DataPacket:
    return DataPacket(PacketType.LIDAR_REQ)


def lidar_response(fov_rad: float, timestamp: float, ranges: bytes) -> DataPacket:
    """``ranges`` is a packed float32 array (one value per beam)."""
    if len(ranges) % 4 != 0:
        raise PacketError("lidar ranges must be a packed float32 array")
    beams = len(ranges) // 4
    return DataPacket(
        PacketType.LIDAR_RESP, (beams, float(fov_rad), float(timestamp)), raw=bytes(ranges)
    )
