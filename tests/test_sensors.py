"""Tests for the IMU and depth sensor models."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.env.physics import AccelCommand, DroneState, QuadrotorDynamics
from repro.env.sensors import (
    GRAVITY,
    DepthParams,
    DepthSensor,
    Imu,
    ImuParams,
)

DT = 1.0 / 60.0


@pytest.fixture
def dyn(tunnel):
    return QuadrotorDynamics(tunnel, initial_state=DroneState(x=10.0, z=1.5))


class TestImu:
    def test_reading_fields(self, dyn):
        imu = Imu(seed=1)
        reading = imu.read(dyn, DT)
        assert reading.timestamp == dyn.time
        assert len(reading.as_tuple()) == 5

    def test_gravity_in_z_axis(self, dyn):
        imu = Imu(ImuParams(accel_noise_std=0.0, accel_bias_walk=0.0), seed=1)
        reading = imu.read(dyn, DT)
        assert reading.accel_z == pytest.approx(GRAVITY, abs=1e-6)

    def test_measures_applied_acceleration(self, dyn):
        imu = Imu(ImuParams(accel_noise_std=0.0, accel_bias_walk=0.0), seed=1)
        for _ in range(30):
            dyn.step(AccelCommand(a_forward=4.0), DT)
        reading = imu.read(dyn, DT)
        assert reading.accel_x == pytest.approx(dyn.applied_acceleration.a_forward, abs=1e-6)

    def test_gyro_tracks_yaw_rate(self, dyn):
        imu = Imu(ImuParams(gyro_noise_std=0.0, gyro_bias_walk=0.0), seed=1)
        for _ in range(30):
            dyn.step(AccelCommand(yaw_accel=3.0), DT)
        reading = imu.read(dyn, DT)
        assert reading.gyro_z == pytest.approx(dyn.state.r, abs=1e-9)

    def test_noise_statistics(self, dyn):
        params = ImuParams(accel_noise_std=0.1, accel_bias_walk=0.0)
        imu = Imu(params, seed=3)
        samples = np.array([imu.read(dyn, DT).accel_x for _ in range(800)])
        assert abs(samples.mean()) < 0.02
        assert samples.std() == pytest.approx(0.1, rel=0.15)

    def test_bias_random_walk_drifts(self, dyn):
        params = ImuParams(accel_noise_std=0.0, accel_bias_walk=0.05)
        imu = Imu(params, seed=4)
        first = imu.read(dyn, DT).accel_x
        for _ in range(2000):
            last = imu.read(dyn, DT).accel_x
        assert last != pytest.approx(first, abs=1e-6)

    def test_seeded_determinism(self, dyn):
        a = Imu(seed=7).read(dyn, DT)
        b = Imu(seed=7).read(dyn, DT)
        assert a == b

    def test_reset_reseeds(self, dyn):
        imu = Imu(seed=7)
        first = imu.read(dyn, DT)
        imu.reset(seed=7)
        again = imu.read(dyn, DT)
        assert first == again


class TestDepthSensor:
    def test_reads_forward_distance(self, dyn, tunnel):
        sensor = DepthSensor(DepthParams(noise_std=0.0, noise_range_fraction=0.0), seed=1)
        reading = sensor.read(tunnel, dyn)
        # Facing down the 50 m tunnel from x=10: 40 m to the cap.
        assert reading == pytest.approx(40.0, abs=0.1)

    def test_facing_wall_reads_short(self, tunnel):
        dyn = QuadrotorDynamics(
            tunnel, initial_state=DroneState(x=10.0, yaw=math.pi / 2, z=1.5)
        )
        sensor = DepthSensor(DepthParams(noise_std=0.0, noise_range_fraction=0.0), seed=1)
        assert sensor.read(tunnel, dyn) == pytest.approx(1.6, abs=0.05)

    def test_clamped_to_max_range(self, dyn, tunnel):
        sensor = DepthSensor(DepthParams(max_range=5.0, noise_std=0.0, noise_range_fraction=0.0))
        assert sensor.read(tunnel, dyn) == 5.0

    def test_never_negative(self, dyn, tunnel):
        sensor = DepthSensor(DepthParams(noise_std=50.0), seed=2)
        for _ in range(50):
            assert sensor.read(tunnel, dyn) >= 0.0

    def test_noise_grows_with_range(self, tunnel):
        params = DepthParams(noise_std=0.0, noise_range_fraction=0.05)
        near = QuadrotorDynamics(
            tunnel, initial_state=DroneState(x=48.0, z=1.5)
        )
        far = QuadrotorDynamics(tunnel, initial_state=DroneState(x=1.0, z=1.5))
        sensor_near = DepthSensor(params, seed=5)
        sensor_far = DepthSensor(params, seed=5)
        near_err = np.std(
            [sensor_near.read(tunnel, near) for _ in range(200)]
        )
        far_err = np.std([sensor_far.read(tunnel, far) for _ in range(200)])
        assert far_err > near_err
