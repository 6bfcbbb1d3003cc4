"""Sensor-fusion controller application (a Section 6 extension).

Runs the multi-backbone fusion network of :mod:`repro.dnn.fusion` with
*rate-decoupled* branches: the IMU backbone + fusion head execute at the
inertial sample rate, while the heavy camera backbone executes only every
``camera_every``-th iteration — the "branches of the network ... executed
at different rates" schedule the paper's future-work section describes.

Behaviourally, the high-rate path dead-reckons the heading error with the
gyro between camera fixes (the classic complementary-filter benefit of
fusing inertial data), so yaw corrections update an order of magnitude
faster than any camera-only controller, while lateral corrections update
at the camera rate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.app.controller import ControllerGains
from repro.core.packets import PacketType, camera_request, imu_request, target_command
from repro.dnn.dataset import LEFT, RIGHT
from repro.errors import ConfigError


@dataclass
class FusionConfig:
    """Rates and gains of the fusion controller."""

    imu_rate_hz: float = 100.0
    camera_every: int = 10  # camera branch runs every Nth IMU iteration
    heading_gain: float = 1.8  # rad/s of yaw-rate command per rad of error
    gains: ControllerGains = field(default_factory=ControllerGains)

    def __post_init__(self) -> None:
        if self.imu_rate_hz <= 0:
            raise ConfigError("imu_rate_hz must be positive")
        if self.camera_every < 1:
            raise ConfigError("camera_every must be at least 1")


@dataclass
class FusionStats:
    """Branch-execution telemetry, as plain counts (the mission runner
    publishes the degradation counters as ``rose_fusion_*`` series)."""

    imu_branch_runs: int = 0
    camera_branch_runs: int = 0
    head_runs: int = 0
    # -- degradation telemetry (all zero on a healthy link) --------------
    #: IMU waits that expired (integration skipped).
    imu_timeouts: int = 0
    #: Camera waits that expired (fix skipped).
    camera_timeouts: int = 0
    #: Requests re-issued after a timeout.
    sensor_retries: int = 0

    @property
    def camera_rate_fraction(self) -> float:
        if self.imu_branch_runs == 0:
            return 0.0
        return self.camera_branch_runs / self.imu_branch_runs


def fusion_controller_app(
    rt,
    sessions,
    perception,
    target_velocity: float,
    cpu,
    config: FusionConfig | None = None,
    stats: FusionStats | None = None,
    sensor_timeout_cycles: int | None = None,
    sensor_retries: int = 0,
):
    """Target program: rate-decoupled fusion control loop.

    ``sessions`` is a :class:`repro.dnn.fusion.FusionSessions`;
    ``perception`` supplies the camera fix (behavioural classifier or a
    trained CNN).

    ``sensor_timeout_cycles`` arms graceful degradation on a faulty link:
    a lost IMU sample skips the gyro integration for that iteration (the
    dead-reckoned heading simply holds), a lost camera frame skips the
    fix and keeps dead-reckoning until the next one — the structure the
    complementary filter already tolerates.  ``None`` (the default)
    waits indefinitely, identical to the fault-free controller.
    """
    config = config or FusionConfig()
    stats = stats if stats is not None else FusionStats()
    period_cycles = int(cpu.frequency_hz / config.imu_rate_hz)
    beta_lateral, _ = config.gains.at_velocity(target_velocity)

    heading_estimate = 0.0  # dead-reckoned heading error (rad)
    lateral_correction = 0.0  # held between camera fixes
    last_imu_time: float | None = None
    iteration = 0

    while True:
        loop_start = yield from rt.current_cycle()

        # -- fast inertial path (every iteration) -----------------------
        imu = None
        for attempt in range(1 + sensor_retries):
            imu = yield from rt.request_response(
                imu_request(), PacketType.IMU_RESP, sensor_timeout_cycles
            )
            if imu is not None:
                break
            if attempt < sensor_retries:
                stats.sensor_retries += 1
        if imu is None:
            # Lost sample: hold the dead-reckoned heading this iteration.
            stats.imu_timeouts += 1
        else:
            _ax, _ay, _az, gyro_z, timestamp = imu.values
            if last_imu_time is not None:
                # The gyro integrates *changes* in heading between camera
                # fixes (course curvature is absorbed at each fix).
                heading_estimate += gyro_z * (timestamp - last_imu_time)
            last_imu_time = timestamp
            yield from rt.run_inference(sessions.imu)
            stats.imu_branch_runs += 1

        # -- slow visual path (every Nth iteration) ---------------------
        if iteration % config.camera_every == 0:
            frame = None
            for attempt in range(1 + sensor_retries):
                frame = yield from rt.request_response(
                    camera_request(), PacketType.CAMERA_RESP, sensor_timeout_cycles
                )
                if frame is not None:
                    break
                if attempt < sensor_retries:
                    stats.sensor_retries += 1
            if frame is None:
                # Lost fix: keep dead-reckoning until the next one.
                stats.camera_timeouts += 1
            else:
                yield from rt.run_inference(sessions.camera)
                stats.camera_branch_runs += 1
                inference = perception.infer_packet(frame)
                # Camera fix: re-anchor the dead-reckoned heading and
                # refresh the lateral correction (Equation 2's lateral
                # term).
                boundary = 0.131  # rad, the angular class half-width
                heading_estimate = boundary * float(
                    inference.angular_probs[LEFT] - inference.angular_probs[RIGHT]
                ) * 2.0
                lateral_correction = beta_lateral * float(
                    inference.lateral_probs[RIGHT] - inference.lateral_probs[LEFT]
                )

        # -- fusion head + actuation ------------------------------------
        yield from rt.run_inference(sessions.head)
        stats.head_runs += 1
        yaw_rate = -config.heading_gain * heading_estimate
        yield from rt.send_packet(
            target_command(
                target_velocity, lateral_correction, yaw_rate, config.gains.altitude
            )
        )

        iteration += 1
        now = yield from rt.current_cycle()
        elapsed = now - loop_start
        if elapsed < period_cycles:
            yield from rt.delay(period_cycles - elapsed)
