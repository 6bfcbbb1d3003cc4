"""The environment simulator: frame-quantized stepping + RPC-style API.

This is the AirSim stand-in.  Like AirSim (Section 3.4.1), the minimum time
step is one *frame* — a physics update — whose simulated duration is a
runtime parameter (typical rates 60-120 Hz).  The simulator only advances
when granted frames (``continue_for_frames``), which is exactly the
discrete time-stepping contract the RoSE synchronizer relies on; it never
free-runs.

The public methods mirror the subset of AirSim's RPC API the paper uses:
sensor reads (camera / IMU / depth / kinematic state), actuation
(``send_velocity_target``), and simulator commands (``reset``,
``takeoff``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from repro.env.camera import CameraParams, FpvCamera
from repro.env.flightctl import SimpleFlightController, SimpleFlightGains, VelocityTarget
from repro.env.physics import DroneState, QuadrotorDynamics, QuadrotorParams
from repro.env.sensors import (
    DepthParams,
    DepthSensor,
    Imu,
    ImuParams,
    Lidar,
    LidarParams,
    SensorNoiseProfile,
)
from repro.env.worlds import World, cached_world
from repro.errors import SimulationError


@dataclass
class EnvConfig:
    """Configuration of one environment simulation."""

    world: str = "tunnel"
    vehicle: str = "quadrotor"  # "quadrotor" or "car" (artifact A.8.3)
    frame_rate: float = 60.0  # physics frames per simulated second
    initial_angle_deg: float = 0.0
    initial_lateral_offset: float = 0.0
    cruise_altitude: float = 1.5
    seed: int = 0
    camera: CameraParams = field(default_factory=CameraParams)
    quadrotor: QuadrotorParams = field(default_factory=QuadrotorParams)
    gains: SimpleFlightGains = field(default_factory=SimpleFlightGains)
    #: Scenario sensor-noise multipliers.  ``None`` (the default) builds
    #: every sensor with its stock parameters — the pre-scenario code
    #: path, bit-identical to the seed.
    noise: SensorNoiseProfile | None = None

    def __post_init__(self) -> None:
        if self.frame_rate <= 0:
            raise SimulationError("frame_rate must be positive")
        if self.vehicle not in ("quadrotor", "car"):
            raise SimulationError(
                f"vehicle must be 'quadrotor' or 'car', got {self.vehicle!r}"
            )

    @property
    def frame_dt(self) -> float:
        return 1.0 / self.frame_rate


@dataclass
class TrajectorySample:
    """One logged point of the flight trajectory."""

    time: float
    x: float
    y: float
    z: float
    yaw: float
    speed: float
    s: float  # course arclength
    d: float  # signed lateral offset

    def __reduce__(self) -> tuple[type[TrajectorySample], tuple[float, ...]]:
        # Positional: a pickled sample carries no field names and loads
        # in one constructor call (copy and deepcopy take this path too).
        return (
            type(self),
            (self.time, self.x, self.y, self.z, self.yaw, self.speed, self.s, self.d),
        )


class EnvSimulator:
    """Frame-stepped UAV environment simulation.

    Construction spawns the drone on the ground at the configured initial
    pose.  Call :meth:`takeoff` to arm the flight controller, then advance
    time with :meth:`continue_for_frames`.

    ``pixels`` says whether the consumer of this environment's camera
    reads pixels (:attr:`repro.app.perception.Perception.reads_pixels`).
    When it is ``False`` the RPC server answers camera requests with a
    zero frame and renders nothing; :meth:`get_camera_image` itself
    always renders.
    """

    def __init__(
        self,
        config: EnvConfig | None = None,
        world: World | None = None,
        pixels: bool = True,
    ):
        self.config = config or EnvConfig()
        self.pixels = pixels
        self.world = world if world is not None else cached_world(self.config.world)
        noise = self.config.noise
        if noise is None:
            camera_params = self.config.camera
            imu_params = None
            depth_params = None
            lidar_params = None
        else:
            camera_params = replace(
                self.config.camera,
                texture_noise=self.config.camera.texture_noise * noise.camera_scale,
            )
            base_imu, base_depth, base_lidar = ImuParams(), DepthParams(), LidarParams()
            imu_params = ImuParams(
                accel_noise_std=base_imu.accel_noise_std * noise.imu_scale,
                gyro_noise_std=base_imu.gyro_noise_std * noise.imu_scale,
                accel_bias_walk=base_imu.accel_bias_walk * noise.imu_scale,
                gyro_bias_walk=base_imu.gyro_bias_walk * noise.imu_scale,
            )
            depth_params = replace(
                base_depth,
                noise_std=base_depth.noise_std * noise.depth_scale,
                noise_range_fraction=base_depth.noise_range_fraction * noise.depth_scale,
            )
            lidar_params = replace(
                base_lidar, noise_std=base_lidar.noise_std * noise.lidar_scale
            )
        self.camera = FpvCamera(camera_params, seed=self.config.seed + 2)
        self.imu = Imu(imu_params, seed=self.config.seed)
        self.depth_sensor = DepthSensor(depth_params, seed=self.config.seed + 1)
        self.lidar = Lidar(lidar_params, seed=self.config.seed + 3)
        spawn = self.world.spawn_pose(
            initial_angle=np.deg2rad(self.config.initial_angle_deg),
            lateral_offset=self.config.initial_lateral_offset,
            forward_offset=self._spawn_forward_offset(),
        )
        initial = DroneState(x=spawn.x, y=spawn.y, z=0.0, yaw=spawn.yaw)
        if self.config.vehicle == "car":
            from repro.env.car import CarController, CarDynamics

            self.controller = CarController()
            self.dynamics = CarDynamics(self.world, initial_state=initial)
        else:
            self.controller = SimpleFlightController(self.config.gains)
            self.dynamics = QuadrotorDynamics(
                self.world, params=self.config.quadrotor, initial_state=initial
            )
        self.frame = 0
        self.trajectory: list[TrajectorySample] = []
        self._goal_time: float | None = None
        #: Course state of the committed pose: ``(s, d)`` from the
        #: trajectory sample (the collision test's projection of a
        #: committed move, a fresh one otherwise), and the heading error,
        #: computed from ``s`` on first read.
        self._course_s = 0.0
        self._course_d = 0.0
        self._heading_error: float | None = None
        self._record_sample(None, self.config.frame_dt)

    # ------------------------------------------------------------------
    # Simulator commands
    # ------------------------------------------------------------------
    def _spawn_forward_offset(self) -> float:
        """Clearance from the start cap, sized to the vehicle."""
        return 2.5 if self.config.vehicle == "car" else 0.5

    def reset(self) -> None:
        """Respawn the drone at the initial pose with time rewound."""
        spawn = self.world.spawn_pose(
            initial_angle=np.deg2rad(self.config.initial_angle_deg),
            lateral_offset=self.config.initial_lateral_offset,
            forward_offset=self._spawn_forward_offset(),
        )
        self.dynamics.reset(DroneState(x=spawn.x, y=spawn.y, z=0.0, yaw=spawn.yaw))
        self.controller.reset()
        self.imu.reset(seed=self.config.seed)
        self.depth_sensor.reset(seed=self.config.seed + 1)
        self.camera.reset(seed=self.config.seed + 2)
        self.lidar.reset(seed=self.config.seed + 3)
        self.frame = 0
        self.trajectory = []
        self._goal_time = None
        self._record_sample(None, self.config.frame_dt)

    def takeoff(self) -> None:
        """Arm the flight controller with an altitude-hold target."""
        self.controller.arm(altitude=self.config.cruise_altitude)

    def continue_for_frames(self, frames: int) -> None:
        """Advance the simulation by ``frames`` physics frames.

        This is the discrete-stepping entry point the synchronizer drives
        once per synchronization period.
        """
        if frames < 0:
            raise SimulationError("cannot step a negative number of frames")
        dt = self.config.frame_dt
        controller, dynamics = self.controller, self.dynamics
        # The car's controller reads the dynamics (its steering angle).
        observed = dynamics if self.config.vehicle == "car" else dynamics.state
        goal = self.world.goal_arclength
        for _ in range(frames):
            course = dynamics.step(controller.update(observed, dt), dt)
            self.frame += 1
            self._record_sample(course, dt)
            if self._goal_time is None and self._course_s >= goal:
                self._goal_time = self.frame * dt

    # ------------------------------------------------------------------
    # Sensor / state API (the AirSim RPC surface)
    # ------------------------------------------------------------------
    def get_camera_image(self) -> np.ndarray:
        return self.camera.render(self.world, self.dynamics.state.pose)

    def get_imu(self):
        return self.imu.read(self.dynamics, self.config.frame_dt)

    def get_depth(self) -> float:
        return self.depth_sensor.read(self.world, self.dynamics)

    def get_lidar(self):
        return self.lidar.scan(self.world, self.dynamics)

    def get_state(self) -> DroneState:
        return self.dynamics.state.copy()

    def send_velocity_target(self, target: VelocityTarget) -> None:
        self.controller.set_target(target)

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def sim_time(self) -> float:
        return self.frame * self.config.frame_dt

    @property
    def position(self) -> np.ndarray:
        return np.array([self.dynamics.state.x, self.dynamics.state.y])

    @property
    def collision_count(self) -> int:
        return len(self.dynamics.collisions)

    @property
    def mission_complete(self) -> bool:
        return self._goal_time is not None

    @property
    def mission_time(self) -> float | None:
        """Sim time at which the goal was first reached, if it was."""
        return self._goal_time

    def course_state(self) -> tuple[float, float, float]:
        """``(s, d, heading_error)`` of the current pose.

        Exposed alongside camera frames as image metadata (AirSim likewise
        exposes ground-truth kinematics); the calibrated behavioural
        classifier consumes it in place of pixels.  Served from the
        course-state cache; nothing is re-projected.
        """
        if self._heading_error is None:
            self._heading_error = self.world.heading_error_at(
                self._course_s, self.dynamics.state.yaw
            )
        return self._course_s, self._course_d, self._heading_error

    @property
    def course_progress(self) -> float:
        """Fraction of the course completed, in [0, 1]."""
        return min(1.0, self._course_s / self.world.goal_arclength)

    @property
    def course_coordinates(self) -> tuple[float, float]:
        """Cached ``(s, d)`` of the committed pose; nothing is projected."""
        return self._course_s, self._course_d

    def set_course_coordinates(self, s: float, d: float) -> None:
        """Cache ``(s, d)`` of a newly committed pose.

        For callers that advance the dynamics state themselves and have
        projected the committed position already (the batched engine);
        the heading error is recomputed on the next read.
        """
        self._course_s = s
        self._course_d = d
        self._heading_error = None

    def _record_sample(self, course: tuple[float, float] | None, dt: float) -> None:
        """Log the committed pose at ``frame * dt``; ``course`` is its
        ``(s, d)`` when the dynamics step already projected it."""
        st = self.dynamics.state
        x, y = st.x, st.y
        s, d = course or self.world.course_coordinates(np.array([x, y]))
        self.set_course_coordinates(s, d)
        self.trajectory.append(
            TrajectorySample(self.frame * dt, x, y, st.z, st.yaw, math.hypot(st.u, st.v), s, d)
        )
