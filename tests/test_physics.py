"""Tests for the quadrotor dynamics and collision response."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.env.geometry import wrap_angle
from repro.env.physics import (
    AccelCommand,
    DroneState,
    QuadrotorDynamics,
    QuadrotorParams,
)
from repro.env.worlds import s_shape_world, tunnel_world

DT = 1.0 / 60.0


@pytest.fixture
def dyn(tunnel):
    return QuadrotorDynamics(
        tunnel, initial_state=DroneState(x=5.0, y=0.0, z=1.5, yaw=0.0)
    )


def step_n(dyn, command, n):
    for _ in range(n):
        dyn.step(command, DT)


class TestBasicDynamics:
    def test_time_advances(self, dyn):
        step_n(dyn, AccelCommand(), 60)
        assert dyn.time == pytest.approx(1.0)

    def test_zero_command_keeps_position(self, dyn):
        x0, y0 = dyn.state.x, dyn.state.y
        step_n(dyn, AccelCommand(), 30)
        assert dyn.state.x == pytest.approx(x0)
        assert dyn.state.y == pytest.approx(y0)

    def test_forward_accel_moves_forward(self, dyn):
        step_n(dyn, AccelCommand(a_forward=3.0), 60)
        assert dyn.state.x > 5.5
        assert dyn.state.u > 1.0
        assert abs(dyn.state.y) < 1e-6

    def test_lateral_accel_moves_left(self, dyn):
        step_n(dyn, AccelCommand(a_lateral=2.0), 30)
        assert dyn.state.y > 0.05  # +lateral = left = +y at yaw 0

    def test_yaw_accel_turns(self, dyn):
        step_n(dyn, AccelCommand(yaw_accel=2.0), 30)
        assert dyn.state.yaw > 0.05
        assert dyn.state.r > 0.0

    def test_vertical_accel_climbs(self, dyn):
        step_n(dyn, AccelCommand(a_vertical=2.0), 30)
        assert dyn.state.z > 1.5

    def test_actuator_lag_delays_response(self, dyn):
        dyn.step(AccelCommand(a_forward=6.0), DT)
        # After one frame the applied accel is well below the command.
        assert dyn.applied_acceleration.a_forward < 3.0

    def test_drag_caps_speed(self):
        world = tunnel_world(length=2000.0, width=100.0)  # no walls in play
        dyn = QuadrotorDynamics(world, initial_state=DroneState(x=5.0, z=1.5))
        step_n(dyn, AccelCommand(a_forward=6.0), 60 * 30)
        params = dyn.params
        # Terminal velocity: a = drag * v  ->  v = a / drag, capped by max.
        expected = min(params.max_linear_accel / params.linear_drag, params.max_speed)
        assert dyn.state.u == pytest.approx(expected, rel=0.05)

    def test_acceleration_clipped(self, dyn):
        step_n(dyn, AccelCommand(a_forward=1e9), 10)
        assert dyn.applied_acceleration.a_forward <= dyn.params.max_linear_accel + 1e-9

    def test_yaw_rate_clipped(self, dyn):
        step_n(dyn, AccelCommand(yaw_accel=1e9), 120)
        assert dyn.state.r <= dyn.params.max_yaw_rate + 1e-9


class TestWorldVelocity:
    def test_world_velocity_rotates_with_yaw(self):
        state = DroneState(u=2.0, v=0.0, yaw=math.pi / 2)
        np.testing.assert_allclose(state.world_velocity, [0.0, 2.0], atol=1e-12)

    def test_speed(self):
        assert DroneState(u=3.0, v=4.0).speed == pytest.approx(5.0)

    def test_copy_is_independent(self):
        a = DroneState(x=1.0)
        b = a.copy()
        b.x = 9.0
        assert a.x == 1.0


class TestCollisions:
    def test_flying_into_wall_collides(self, dyn):
        step_n(dyn, AccelCommand(a_lateral=6.0), 60 * 5)
        assert len(dyn.collisions) >= 1
        # Position held out of the wall by the collision radius.
        assert abs(dyn.state.y) <= 1.6

    def test_collision_sheds_speed(self, tunnel):
        dyn = QuadrotorDynamics(
            tunnel, initial_state=DroneState(x=5.0, y=0.0, z=1.5, yaw=math.pi / 2, u=5.0)
        )
        speed_before = dyn.state.speed
        step_n(dyn, AccelCommand(), 60)
        assert dyn.collisions
        assert dyn.state.speed < speed_before * 0.5

    def test_recovery_window(self, tunnel):
        dyn = QuadrotorDynamics(
            tunnel, initial_state=DroneState(x=5.0, y=0.0, z=1.5, yaw=math.pi / 2, u=5.0)
        )
        step_n(dyn, AccelCommand(), 30)
        assert dyn.collisions
        assert dyn.recovering
        # During recovery, commands are ignored (drone brakes).
        step_n(dyn, AccelCommand(a_forward=6.0), 5)
        assert dyn.state.u < 1.0

    def test_no_duplicate_collision_during_recovery(self, tunnel):
        dyn = QuadrotorDynamics(
            tunnel, initial_state=DroneState(x=5.0, y=0.0, z=1.5, yaw=math.pi / 2, u=5.0)
        )
        # One continuous push into the wall during the recovery window
        # registers exactly one collision event.
        recovery_frames = int(dyn.params.recovery_time / DT) - 5
        step_n(dyn, AccelCommand(a_lateral=6.0), recovery_frames)
        assert len(dyn.collisions) == 1

    def test_collision_event_records_state(self, tunnel):
        dyn = QuadrotorDynamics(
            tunnel, initial_state=DroneState(x=5.0, y=0.0, z=1.5, yaw=math.pi / 2, u=5.0)
        )
        step_n(dyn, AccelCommand(), 60)
        event = dyn.collisions[0]
        assert event.time >= 0.0
        assert event.speed > 0.0
        assert abs(event.y) > 1.0  # near the wall


class TestReset:
    def test_reset_clears_state(self, dyn):
        step_n(dyn, AccelCommand(a_forward=5.0), 60)
        dyn.reset(DroneState(x=1.0, y=0.5, z=0.0, yaw=0.1))
        assert dyn.time == 0.0
        assert dyn.collisions == []
        assert dyn.state.x == 1.0
        assert dyn.state.u == 0.0
        assert not dyn.recovering

    def test_reset_clears_actuator_state(self, dyn):
        step_n(dyn, AccelCommand(a_forward=6.0), 30)
        dyn.reset(DroneState(x=5.0))
        assert dyn.applied_acceleration.a_forward == 0.0


class TestParams:
    def test_custom_params_respected(self, tunnel):
        params = QuadrotorParams(max_speed=2.0)
        dyn = QuadrotorDynamics(
            tunnel, params=params, initial_state=DroneState(x=5.0, z=1.5)
        )
        step_n(dyn, AccelCommand(a_forward=6.0), 60 * 10)
        assert dyn.state.speed <= 2.0 + 1e-9


# ---------------------------------------------------------------------------
# Same bits as the object-per-frame step
# ---------------------------------------------------------------------------
def reference_step(dyn: QuadrotorDynamics, command: AccelCommand, dt: float):
    """``QuadrotorDynamics.step`` as written before it worked in locals:
    a recovery ``AccelCommand``, a ``clipped`` one, builtin clamps and
    the ``recovering`` and ``speed`` properties, on ``dyn``'s state."""
    p = dyn.params
    st = dyn.state
    if dyn.recovering:
        command = AccelCommand(
            a_forward=-st.u / max(p.recovery_time * 0.5, dt),
            a_lateral=-st.v / max(p.recovery_time * 0.5, dt),
            a_vertical=-st.vz / max(p.recovery_time * 0.5, dt),
            yaw_accel=-st.r / max(p.recovery_time * 0.5, dt),
        )
    clipped = AccelCommand(
        a_forward=min(max(command.a_forward, -p.max_linear_accel), p.max_linear_accel),
        a_lateral=min(max(command.a_lateral, -p.max_linear_accel), p.max_linear_accel),
        a_vertical=min(max(command.a_vertical, -p.max_vertical_accel), p.max_vertical_accel),
        yaw_accel=min(max(command.yaw_accel, -p.max_yaw_accel), p.max_yaw_accel),
    )
    alpha = dt / (p.actuator_tau + dt)
    ap = dyn._applied
    ap.a_forward += alpha * (clipped.a_forward - ap.a_forward)
    ap.a_lateral += alpha * (clipped.a_lateral - ap.a_lateral)
    ap.a_vertical += alpha * (clipped.a_vertical - ap.a_vertical)
    ap.yaw_accel += alpha * (clipped.yaw_accel - ap.yaw_accel)
    st.u += (ap.a_forward - p.linear_drag * st.u) * dt
    st.v += (ap.a_lateral - p.linear_drag * st.v) * dt
    st.vz += (ap.a_vertical - p.linear_drag * st.vz) * dt
    st.r += (ap.yaw_accel - p.yaw_drag * st.r) * dt
    speed = st.speed
    if speed > p.max_speed:
        scale = p.max_speed / speed
        st.u *= scale
        st.v *= scale
    st.r = min(max(st.r, -p.max_yaw_rate), p.max_yaw_rate)
    st.yaw = wrap_angle(st.yaw + st.r * dt)
    c, s = math.cos(st.yaw), math.sin(st.yaw)
    new_x = st.x + (st.u * c - st.v * s) * dt
    new_y = st.y + (st.u * s + st.v * c) * dt
    st.z += st.vz * dt
    course = dyn.world.course_if_clear(np.array([new_x, new_y]), p.collision_radius)
    if course is None:
        if not dyn.recovering:
            dyn._handle_collision(new_x, new_y)
    else:
        st.x, st.y = new_x, new_y
    dyn.time += dt
    return course


def _bits(dyn: QuadrotorDynamics, course) -> tuple:
    floats = dataclasses.astuple(dyn.state) + dataclasses.astuple(dyn._applied)
    floats += (dyn.time, dyn._recovery_until) + (course or ())
    return tuple(float(v).hex() for v in floats) + (len(dyn.collisions),)


#: Body-frame accelerations: in and beyond the limits, signed zeros.
ACCEL = st.one_of(st.floats(-20.0, 20.0), st.sampled_from([0.0, -0.0, 6.0, -6.0]))


@settings(max_examples=60, deadline=None)
@given(
    commands=st.lists(st.tuples(ACCEL, ACCEL, ACCEL, ACCEL), min_size=1, max_size=12),
    frames=st.integers(1, 40),
    yaw=st.floats(-math.pi, math.pi),
    world=st.sampled_from(["tunnel", "s-shape"]),
)
def test_step_matches_reference(commands, frames, yaw, world):
    """Every float of the state, the actuator state, the clock, the
    recovery deadline and the returned course, frame by frame, through
    wall collisions, recovery and the speed limit."""
    built = tunnel_world() if world == "tunnel" else s_shape_world()
    start = DroneState(x=5.0, y=0.5, z=1.5, yaw=yaw, u=8.0)
    dyn = QuadrotorDynamics(built, initial_state=start)
    reference = QuadrotorDynamics(built, initial_state=start)
    for a_f, a_l, a_v, yaw_accel in commands:
        command = AccelCommand(a_f, a_l, a_v, yaw_accel)
        for _ in range(frames):
            course = dyn.step(command, DT)
            assert _bits(dyn, course) == _bits(reference, reference_step(reference, command, DT))
