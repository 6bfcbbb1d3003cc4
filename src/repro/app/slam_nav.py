"""SLAM-based navigation application (a Section 6 extension).

The companion computer runs the full classical pipeline onboard: integrate
noisy odometry, correct it by lidar scan-matching against the map built so
far, extend the map, and steer from the *estimated* pose using the onboard
course map.  Ground truth never reaches the controller — only the sensors
the deployed system would have — so localization error feeds straight into
flight quality, and the scan-matcher's data-dependent iteration count
feeds straight into compute latency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.core.packets import PacketType, lidar_request, state_request, target_command
from repro.env.worlds import World
from repro.errors import ConfigError
from repro.slam.pipeline import SlamPipeline


@dataclass
class SlamNavConfig:
    """Rates, gains and odometry noise of the SLAM navigator."""

    scan_rate_hz: float = 10.0
    lateral_gain: float = 1.2  # m/s per meter of estimated offset
    heading_gain: float = 1.5  # rad/s per rad of estimated heading error
    altitude: float = 1.5
    odometry_noise_fraction: float = 0.06  # per meter travelled
    odometry_yaw_noise: float = 0.01  # rad per update
    max_lidar_range: float = 30.0

    def __post_init__(self) -> None:
        if self.scan_rate_hz <= 0:
            raise ConfigError("scan_rate_hz must be positive")
        if not (0 <= self.odometry_noise_fraction < 1):
            raise ConfigError("odometry_noise_fraction must be in [0, 1)")


@dataclass
class SlamNavStats:
    """Telemetry: localization quality + data-dependent compute."""

    pose_errors: list[float] = field(default_factory=list)
    iteration_history: list[int] = field(default_factory=list)
    total_flops: int = 0

    def record(self, pose_error: float, iterations: int, flops: int) -> None:
        self.pose_errors.append(pose_error)
        self.iteration_history.append(iterations)
        self.total_flops += flops

    @property
    def updates(self) -> int:
        return len(self.pose_errors)

    @property
    def mean_pose_error(self) -> float:
        return float(np.mean(self.pose_errors)) if self.pose_errors else 0.0

    @property
    def final_pose_error(self) -> float:
        return self.pose_errors[-1] if self.pose_errors else 0.0

    @property
    def mean_iterations(self) -> float:
        if not self.iteration_history:
            return 0.0
        return float(np.mean(self.iteration_history))


def slam_mapping_app(
    rt,
    pipeline: SlamPipeline,
    cpu,
    config: SlamNavConfig | None = None,
    stats: SlamNavStats | None = None,
    seed: int = 0,
    demux=None,
):
    """Target program: background mapping workload (no actuation).

    The multi-tenant scenario of the paper's introduction: a second
    application sharing the companion SoC with the controller.  It senses
    (lidar + state for odometry), localizes and maps — consuming CPU
    cycles that contend with the controller — but never commands the
    flight controller.  Requires the shared :class:`IoDemux` so its
    responses and the controller's are sorted to the right task.
    """
    config = config or SlamNavConfig()
    stats = stats if stats is not None else SlamNavStats()
    rng = np.random.default_rng(seed)
    period_cycles = int(cpu.frequency_hz / config.scan_rate_hz)
    last_truth: tuple[float, float, float] | None = None

    def _request(request_packet, response_type):
        if demux is not None:
            result = yield from demux.request(rt, request_packet, response_type)
        else:
            result = yield from rt.request_response(request_packet, response_type)
        return result

    while True:
        loop_start = yield from rt.current_cycle()
        state = yield from _request(state_request(), PacketType.STATE_RESP)
        tx, ty = state.values[0], state.values[1]
        tyaw = state.values[3]
        scan_packet = yield from _request(lidar_request(), PacketType.LIDAR_RESP)
        beams, fov_rad, _ts = scan_packet.values
        ranges = np.frombuffer(scan_packet.raw, dtype=np.float32).astype(float)
        beam_angles = np.linspace(-fov_rad / 2.0, fov_rad / 2.0, int(beams))

        if last_truth is None:
            odo = (0.0, 0.0, 0.0)
        else:
            lx, ly, lyaw = last_truth
            dx_w, dy_w = tx - lx, ty - ly
            cos_l, sin_l = math.cos(lyaw), math.sin(lyaw)
            dist = math.hypot(dx_w, dy_w)
            noise = config.odometry_noise_fraction * dist
            odo = (
                dx_w * cos_l + dy_w * sin_l + rng.normal(0.0, noise),
                -dx_w * sin_l + dy_w * cos_l + rng.normal(0.0, noise),
                math.atan2(math.sin(tyaw - lyaw), math.cos(tyaw - lyaw))
                + rng.normal(0.0, config.odometry_yaw_noise),
            )
        last_truth = (tx, ty, tyaw)

        update = pipeline.process(
            odo[0], odo[1], odo[2], beam_angles, ranges, config.max_lidar_range
        )
        yield from rt.compute(cpu.scalar_flops_cycles(update.flops))
        stats.record(
            math.hypot(update.x - tx, update.y - ty), update.match.iterations, update.flops
        )

        now = yield from rt.current_cycle()
        elapsed = now - loop_start
        if elapsed < period_cycles:
            yield from rt.delay(period_cycles - elapsed)


def slam_navigation_app(
    rt,
    pipeline: SlamPipeline,
    world: World,
    cpu,
    target_velocity: float,
    config: SlamNavConfig | None = None,
    stats: SlamNavStats | None = None,
    seed: int = 0,
):
    """Target program: lidar SLAM localization driving course following.

    ``world`` provides the *onboard course map* (the centerline to follow)
    — not ground truth: the vehicle's own pose always comes from the SLAM
    estimate.
    """
    config = config or SlamNavConfig()
    stats = stats if stats is not None else SlamNavStats()
    rng = np.random.default_rng(seed)
    period_cycles = int(cpu.frequency_hz / config.scan_rate_hz)
    last_truth: tuple[float, float, float] | None = None

    while True:
        loop_start = yield from rt.current_cycle()

        # Sense: true state (consumed only to synthesize noisy odometry
        # deltas, as a real wheel/visual odometer would produce).
        state = yield from rt.request_response(state_request(), PacketType.STATE_RESP)
        tx, ty, _tz, tyaw = state.values[0], state.values[1], state.values[2], state.values[3]
        scan_packet = yield from rt.request_response(
            lidar_request(), PacketType.LIDAR_RESP
        )
        beams, fov_rad, _ts = scan_packet.values
        ranges = np.frombuffer(scan_packet.raw, dtype=np.float32).astype(float)
        beam_angles = np.linspace(-fov_rad / 2.0, fov_rad / 2.0, int(beams))

        # Odometry: true body-frame delta + distance-proportional noise.
        if last_truth is None:
            odo = (0.0, 0.0, 0.0)
        else:
            lx, ly, lyaw = last_truth
            dx_w, dy_w = tx - lx, ty - ly
            cos_l, sin_l = math.cos(lyaw), math.sin(lyaw)
            dx_b = dx_w * cos_l + dy_w * sin_l
            dy_b = -dx_w * sin_l + dy_w * cos_l
            dyaw = math.atan2(math.sin(tyaw - lyaw), math.cos(tyaw - lyaw))
            dist = math.hypot(dx_b, dy_b)
            noise = config.odometry_noise_fraction * dist
            odo = (
                dx_b + rng.normal(0.0, noise),
                dy_b + rng.normal(0.0, noise),
                dyaw + rng.normal(0.0, config.odometry_yaw_noise),
            )
        last_truth = (tx, ty, tyaw)

        # Localize + map; charge the data-dependent compute cost.
        update = pipeline.process(
            odo[0], odo[1], odo[2], beam_angles, ranges, config.max_lidar_range
        )
        yield from rt.compute(cpu.scalar_flops_cycles(update.flops))
        pose_error = math.hypot(update.x - tx, update.y - ty)
        stats.record(pose_error, update.match.iterations, update.flops)

        # Act: steer from the *estimated* pose using the onboard map.
        s, d = world.course_coordinates(np.array([update.x, update.y]))
        tangent = world.centerline.tangent_at_arclength(s)
        course_yaw = math.atan2(tangent[1], tangent[0])
        heading_err = math.atan2(
            math.sin(update.yaw - course_yaw), math.cos(update.yaw - course_yaw)
        )
        yield from rt.send_packet(
            target_command(
                target_velocity,
                -config.lateral_gain * d,
                -config.heading_gain * heading_err,
                config.altitude,
            )
        )

        now = yield from rt.current_cycle()
        elapsed = now - loop_start
        if elapsed < period_cycles:
            yield from rt.delay(period_cycles - elapsed)
