"""Ackermann (car) vehicle model — the artifact's "car vs drone" option.

The RoSE artifact exposes a simulation parameter for "deploying a car vs a
drone simulation" (appendix A.8.3).  This module provides the car side: a
kinematic bicycle model with steering-rate and acceleration limits, plus a
low-level controller that tracks the same :class:`VelocityTarget` commands
the companion computer already emits — so every controller application
(DNN trail follower, MPC) drives a car without modification.

Mapping of the command interface onto Ackermann kinematics:

* ``v_forward`` — longitudinal speed target (throttle/brake PID);
* ``yaw_rate``  — tracked by steering: delta = atan(L * r / v);
* ``v_lateral`` — cars cannot translate sideways; ignored;
* ``altitude``  — ignored (ground vehicle).

The car exposes the same dynamics protocol as the quadrotor
(:class:`~repro.env.physics.QuadrotorDynamics`), so the environment
simulator, sensors, camera and collision handling are shared.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.env.flightctl import Pid, PidGains, VelocityTarget
from repro.env.physics import AccelCommand, CollisionEvent, DroneState
from repro.env.worlds import World
from repro.errors import SimulationError


@dataclass
class CarParams:
    """Bicycle-model parameters."""

    wheelbase: float = 2.5  # m
    max_accel: float = 4.0  # m/s^2
    max_brake: float = 8.0  # m/s^2
    max_speed: float = 20.0  # m/s
    max_steer: float = 0.45  # rad
    max_steer_rate: float = 1.2  # rad/s
    drag: float = 0.12  # 1/s
    collision_radius: float = 0.8  # m (half car width-ish)
    collision_speed_retention: float = 0.1
    recovery_time: float = 2.0  # s

    def __post_init__(self) -> None:
        if self.wheelbase <= 0:
            raise SimulationError("wheelbase must be positive")
        if self.max_steer <= 0 or self.max_steer_rate <= 0:
            raise SimulationError("steering limits must be positive")


@dataclass
class CarCommand:
    """Low-level command: longitudinal acceleration + steering rate."""

    accel: float = 0.0
    steer_rate: float = 0.0


class CarDynamics:
    """Kinematic bicycle model with the quadrotor dynamics' protocol.

    State reuses :class:`DroneState`: ``u`` is the longitudinal speed,
    ``v`` is always zero (no sideslip in the kinematic model), ``r``
    follows from speed and steering angle, ``z``/``vz`` stay zero.
    """

    def __init__(
        self,
        world: World,
        params: CarParams | None = None,
        initial_state: DroneState | None = None,
    ):
        self.world = world
        self.params = params or CarParams()
        self.state = initial_state.copy() if initial_state else DroneState()
        self.state.z = 0.0
        self.steering_angle = 0.0
        self.collisions: list[CollisionEvent] = []
        self.time = 0.0
        self._recovery_until = -1.0
        self._applied = AccelCommand()

    @property
    def recovering(self) -> bool:
        return self.time < self._recovery_until

    @property
    def applied_acceleration(self) -> AccelCommand:
        """Longitudinal + centripetal acceleration, for the IMU model."""
        return self._applied

    def reset(self, state: DroneState) -> None:
        self.state = state.copy()
        self.state.z = 0.0
        self.steering_angle = 0.0
        self.collisions = []
        self.time = 0.0
        self._recovery_until = -1.0
        self._applied = AccelCommand()

    # ------------------------------------------------------------------
    def step(self, command: CarCommand, dt: float) -> tuple[float, float] | None:
        """One frame; returns ``(s, d)`` as :meth:`QuadrotorDynamics.step`."""
        p = self.params
        st = self.state

        if self.recovering:
            command = CarCommand(accel=-st.u / max(dt, 1e-6), steer_rate=0.0)

        accel = float(np.clip(command.accel, -p.max_brake, p.max_accel))
        steer_rate = float(
            np.clip(command.steer_rate, -p.max_steer_rate, p.max_steer_rate)
        )

        self.steering_angle = float(
            np.clip(self.steering_angle + steer_rate * dt, -p.max_steer, p.max_steer)
        )
        st.u = float(np.clip(st.u + (accel - p.drag * st.u) * dt, 0.0, p.max_speed))
        st.v = 0.0

        # Bicycle model: yaw rate from speed and steering.
        st.r = st.u * math.tan(self.steering_angle) / p.wheelbase
        st.yaw = math.atan2(
            math.sin(st.yaw + st.r * dt), math.cos(st.yaw + st.r * dt)
        )

        self._applied = AccelCommand(
            a_forward=accel, a_lateral=st.u * st.r, a_vertical=0.0, yaw_accel=0.0
        )

        new_x = st.x + st.u * math.cos(st.yaw) * dt
        new_y = st.y + st.u * math.sin(st.yaw) * dt
        course = self.world.course_if_clear((new_x, new_y), p.collision_radius)
        if course is None:
            if not self.recovering:
                self._handle_collision(new_x, new_y)
        else:
            st.x, st.y = new_x, new_y

        self.time += dt
        return course

    def _handle_collision(self, new_x: float, new_y: float) -> None:
        p = self.params
        st = self.state
        self.collisions.append(
            CollisionEvent(time=self.time, x=new_x, y=new_y, speed=st.u)
        )
        st.u *= p.collision_speed_retention
        st.r = 0.0
        self.steering_angle = 0.0
        self._applied = AccelCommand()
        self._recovery_until = self.time + p.recovery_time


class CarController:
    """Tracks :class:`VelocityTarget` commands with throttle + steering.

    The drop-in counterpart of the quadrotor's SimpleFlight controller:
    same target interface, same most-recent-wins semantics.
    """

    def __init__(self, params: CarParams | None = None):
        self.params = params or CarParams()
        self._speed_pid = Pid(PidGains(kp=1.6, ki=0.3, output_limit=self.params.max_accel))
        self._steer_pid = Pid(PidGains(kp=4.0, output_limit=self.params.max_steer_rate))
        self.target = VelocityTarget(0.0, 0.0, 0.0, 0.0)
        self.armed = False
        self.targets_received = 0

    def reset(self) -> None:
        self._speed_pid.reset()
        self._steer_pid.reset()
        self.target = VelocityTarget(0.0, 0.0, 0.0, 0.0)
        self.armed = False
        self.targets_received = 0

    def arm(self, altitude: float = 0.0) -> None:
        """Enable the drivetrain ("takeoff" for a ground vehicle)."""
        self.armed = True
        self.target = VelocityTarget(0.0, 0.0, 0.0, 0.0)

    def set_target(self, target: VelocityTarget) -> None:
        self.target = target
        self.targets_received += 1

    def update(self, dynamics: CarDynamics, dt: float) -> CarCommand:
        if not self.armed:
            return CarCommand()
        st = dynamics.state
        p = self.params
        accel = self._speed_pid.update(self.target.v_forward - st.u, dt)
        # Track the yaw-rate target through the steering angle.  A lateral
        # velocity target cannot be realized by a non-holonomic vehicle;
        # the standard adapter folds it into the heading: steering toward
        # the commanded lateral motion at the current speed.
        speed = max(st.u, 0.5)  # avoid the singular stationary case
        yaw_rate_target = self.target.yaw_rate + self.target.v_lateral / speed
        desired_steer = float(
            np.clip(
                math.atan(p.wheelbase * yaw_rate_target / speed),
                -p.max_steer,
                p.max_steer,
            )
        )
        steer_rate = self._steer_pid.update(desired_steer - dynamics.steering_angle, dt)
        return CarCommand(accel=accel, steer_rate=steer_rate)
