"""Quadrotor flight dynamics with frame stepping and collision response.

The model captures what the paper's closed-loop experiments are sensitive
to: a drone cannot change its velocity instantaneously (attitude/actuator
lag plus bounded acceleration), so stale control targets — caused by DNN
latency or coarse co-simulation synchronization — translate into trajectory
error and, past a threshold, wall collisions.  Photorealistic aerodynamics
are not required; bounded-acceleration kinematics with a first-order
actuator lag and drag reproduce the latency-to-trajectory coupling.

Collisions follow the paper's artifact appendix (A.7): a collision does not
end the mission — the drone stops against the wall, loses most of its
speed, and spends a recovery interval re-stabilizing before control
resumes, which is why colliding configurations show much longer mission
times (e.g. Rocket-based SoCs in Figure 14).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.env.geometry import Pose2, wrap_angle
from repro.env.worlds import World


@dataclass
class DroneState:
    """Full kinematic state of the simulated quadrotor.

    Velocities ``u`` (forward) and ``v`` (leftward) are expressed in the
    body frame; ``r`` is the yaw rate.  ``z``/``vz`` model altitude.
    """

    x: float = 0.0
    y: float = 0.0
    z: float = 0.0
    yaw: float = 0.0
    u: float = 0.0
    v: float = 0.0
    vz: float = 0.0
    r: float = 0.0

    @property
    def pose(self) -> Pose2:
        return Pose2(self.x, self.y, self.yaw)

    @property
    def speed(self) -> float:
        return math.hypot(self.u, self.v)

    @property
    def world_velocity(self) -> np.ndarray:
        c, s = math.cos(self.yaw), math.sin(self.yaw)
        return np.array([self.u * c - self.v * s, self.u * s + self.v * c])

    def copy(self) -> "DroneState":
        return DroneState(
            self.x, self.y, self.z, self.yaw, self.u, self.v, self.vz, self.r
        )


@dataclass
class AccelCommand:
    """Body-frame acceleration command produced by the flight controller."""

    a_forward: float = 0.0
    a_lateral: float = 0.0
    a_vertical: float = 0.0
    yaw_accel: float = 0.0


@dataclass
class QuadrotorParams:
    """Physical limits and response constants of the modeled airframe."""

    max_linear_accel: float = 6.0  # m/s^2, bank-angle limited
    max_vertical_accel: float = 4.0  # m/s^2
    max_yaw_accel: float = 12.0  # rad/s^2
    max_speed: float = 15.0  # m/s
    max_yaw_rate: float = 2.5  # rad/s
    actuator_tau: float = 0.12  # s, first-order lag of attitude response
    linear_drag: float = 0.25  # 1/s, velocity-proportional drag
    yaw_drag: float = 1.2  # 1/s
    collision_radius: float = 0.30  # m
    collision_speed_retention: float = 0.15  # tangential speed kept on impact
    recovery_time: float = 1.5  # s of post-collision stabilization


@dataclass
class CollisionEvent:
    """Record of one wall impact."""

    time: float
    x: float
    y: float
    speed: float


class QuadrotorDynamics:
    """Frame-stepped quadrotor dynamics within a :class:`World`.

    The environment simulator owns one instance and advances it one frame
    at a time; the flight controller supplies an :class:`AccelCommand`
    each frame.
    """

    def __init__(
        self,
        world: World,
        params: QuadrotorParams | None = None,
        initial_state: DroneState | None = None,
    ):
        self.world = world
        self.params = params or QuadrotorParams()
        self.state = initial_state.copy() if initial_state else DroneState()
        self.collisions: list[CollisionEvent] = []
        self.time = 0.0
        self._recovery_until = -1.0
        # First-order actuator state (the accelerations actually realized).
        self._applied = AccelCommand()

    @property
    def recovering(self) -> bool:
        """True while the drone is stabilizing after a collision."""
        return self.time < self._recovery_until

    @property
    def applied_acceleration(self) -> AccelCommand:
        """The accelerations realized this frame (post actuator lag); the
        IMU model samples these as the specific-force ground truth."""
        return self._applied

    def reset(self, state: DroneState) -> None:
        self.state = state.copy()
        self.collisions = []
        self.time = 0.0
        self._recovery_until = -1.0
        self._applied = AccelCommand()

    # ------------------------------------------------------------------
    def step(self, command: AccelCommand, dt: float) -> tuple[float, float] | None:
        """Advance one frame of duration ``dt`` under ``command``.

        Returns the collision test's ``(s, d)`` of the new position when
        it is committed, ``None`` when the position is held.
        """
        p = self.params
        st = self.state
        u, v, vz, r = st.u, st.v, st.vz, st.r

        recovering = self.time < self._recovery_until
        if recovering:
            # During recovery the autopilot brakes to hover; external
            # commands are ignored, matching the "re-stabilize after a
            # collision" behaviour the artifact appendix describes.
            brake = max(p.recovery_time * 0.5, dt)
            a_forward = -u / brake
            a_lateral = -v / brake
            a_vertical = -vz / brake
            yaw_accel = -r / brake
        else:
            a_forward = command.a_forward
            a_lateral = command.a_lateral
            a_vertical = command.a_vertical
            yaw_accel = command.yaw_accel

        # Clamps into locals: ``lo if lo > x else x`` then ``hi if hi < x
        # else x`` pick what builtin ``min(max(x, lo), hi)`` picks, signed
        # zeros and NaN included.
        hi = p.max_linear_accel
        lo = -hi
        a_forward = lo if lo > a_forward else a_forward
        a_forward = hi if hi < a_forward else a_forward
        a_lateral = lo if lo > a_lateral else a_lateral
        a_lateral = hi if hi < a_lateral else a_lateral
        hi = p.max_vertical_accel
        lo = -hi
        a_vertical = lo if lo > a_vertical else a_vertical
        a_vertical = hi if hi < a_vertical else a_vertical
        hi = p.max_yaw_accel
        lo = -hi
        yaw_accel = lo if lo > yaw_accel else yaw_accel
        yaw_accel = hi if hi < yaw_accel else yaw_accel

        # First-order actuator lag: attitude (hence lateral force) cannot
        # change instantaneously.
        alpha = dt / (p.actuator_tau + dt)
        ap = self._applied
        ap_forward = ap.a_forward = ap.a_forward + alpha * (a_forward - ap.a_forward)
        ap_lateral = ap.a_lateral = ap.a_lateral + alpha * (a_lateral - ap.a_lateral)
        ap_vertical = ap.a_vertical = ap.a_vertical + alpha * (a_vertical - ap.a_vertical)
        ap_yaw = ap.yaw_accel = ap.yaw_accel + alpha * (yaw_accel - ap.yaw_accel)

        # Integrate body-frame velocities with drag.
        drag = p.linear_drag
        u += (ap_forward - drag * u) * dt
        v += (ap_lateral - drag * v) * dt
        vz += (ap_vertical - drag * vz) * dt
        r += (ap_yaw - p.yaw_drag * r) * dt

        speed = math.hypot(u, v)
        if speed > p.max_speed:
            scale = p.max_speed / speed
            u *= scale
            v *= scale
        hi = p.max_yaw_rate
        lo = -hi
        r = lo if lo > r else r
        r = hi if hi < r else r
        st.u, st.v, st.vz, st.r = u, v, vz, r

        # Integrate pose.  The world-frame velocity rotation is inlined
        # (identical arithmetic to ``DroneState.world_velocity``).
        yaw = st.yaw = wrap_angle(st.yaw + r * dt)
        c, s = math.cos(yaw), math.sin(yaw)
        new_x = st.x + (u * c - v * s) * dt
        new_y = st.y + (u * s + v * c) * dt
        st.z += vz * dt

        # A plain 2-tuple: every world query reads ``float(point[i])``.
        course = self.world.course_if_clear((new_x, new_y), p.collision_radius)
        if course is None:
            if not recovering:
                self._handle_collision(new_x, new_y)
            # While recovering against the wall, hold position.
        else:
            st.x, st.y = new_x, new_y

        self.time += dt
        return course

    # ------------------------------------------------------------------
    def _handle_collision(self, new_x: float, new_y: float) -> None:
        """Stop at the wall, shed speed, and enter recovery."""
        p = self.params
        st = self.state
        self.collisions.append(
            CollisionEvent(time=self.time, x=new_x, y=new_y, speed=st.speed)
        )
        # Remain at the last non-colliding position; keep a fraction of
        # tangential speed, kill the rest (impact), and schedule recovery.
        st.u *= p.collision_speed_retention
        st.v = 0.0
        st.r = 0.0
        self._applied = AccelCommand()
        self._recovery_until = self.time + p.recovery_time
