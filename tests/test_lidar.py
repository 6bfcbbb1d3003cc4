"""Tests for the lidar sensor, its packets, and its RPC/synchronizer path."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import packets as pk
from repro.core.packets import PacketType, decode_packet, encode_packet
from repro.env.rpc import RpcClient, RpcServer
from repro.env.sensors import Lidar, LidarParams
from repro.errors import PacketError


class TestLidarSensor:
    def test_param_validation(self):
        with pytest.raises(ValueError):
            LidarParams(beams=1)
        with pytest.raises(ValueError):
            LidarParams(fov_rad=10.0)

    def test_scan_shape(self, env_sim):
        scan = env_sim.get_lidar()
        assert scan.ranges.shape == (64,)
        assert scan.ranges.dtype == np.float32
        assert scan.beams == 64
        assert scan.timestamp == env_sim.sim_time

    def test_beam_angles_span_fov(self, env_sim):
        scan = env_sim.get_lidar()
        angles = scan.beam_angles()
        assert angles[0] == pytest.approx(-scan.fov_rad / 2)
        assert angles[-1] == pytest.approx(scan.fov_rad / 2)

    def test_ranges_in_bounds(self, env_sim):
        scan = env_sim.get_lidar()
        assert (scan.ranges >= 0).all()
        assert (scan.ranges <= 30.0 + 1e-6).all()

    def test_side_beams_see_walls(self, env_sim):
        """In the tunnel, the perpendicular beams read ~the half width."""
        params = LidarParams(noise_std=0.0, fov_rad=np.pi)  # +/-90 degrees
        lidar = Lidar(params, seed=1)
        scan = lidar.scan(env_sim.world, env_sim.dynamics)
        # First and last beams point at the walls 1.6 m away.
        assert scan.ranges[0] == pytest.approx(1.6, abs=0.05)
        assert scan.ranges[-1] == pytest.approx(1.6, abs=0.05)

    def test_seeded_determinism(self, env_sim):
        a = Lidar(seed=5).scan(env_sim.world, env_sim.dynamics)
        b = Lidar(seed=5).scan(env_sim.world, env_sim.dynamics)
        np.testing.assert_array_equal(a.ranges, b.ranges)


class TestLidarPackets:
    def test_round_trip(self):
        ranges = np.arange(16, dtype=np.float32)
        packet = pk.lidar_response(4.71, 2.5, ranges.tobytes())
        decoded = decode_packet(encode_packet(packet))
        assert decoded.ptype == PacketType.LIDAR_RESP
        assert decoded.values[0] == 16
        assert decoded.values[1] == pytest.approx(4.71)
        np.testing.assert_array_equal(
            np.frombuffer(decoded.raw, dtype=np.float32), ranges
        )

    def test_request_is_empty(self):
        decoded = decode_packet(encode_packet(pk.lidar_request()))
        assert decoded.values == ()

    def test_unaligned_ranges_rejected(self):
        with pytest.raises(PacketError):
            pk.lidar_response(4.71, 0.0, b"\x00\x01\x02")

    def test_truncated_metadata_rejected(self):
        import struct

        wire = struct.pack(
            pk.HEADER_FORMAT, pk.MAGIC, int(PacketType.LIDAR_RESP), 0, 4
        ) + b"\x00" * 4
        with pytest.raises(PacketError):
            decode_packet(wire)

    def test_is_data_packet(self):
        assert PacketType.LIDAR_REQ.is_data
        assert PacketType.LIDAR_RESP.is_data


class TestLidarRpc:
    def test_get_lidar(self, env_sim):
        client = RpcClient(RpcServer(env_sim))
        scan = client.get_lidar()
        assert scan["beams"] * 4 == len(scan["ranges"])
        assert scan["fov_rad"] > 0
