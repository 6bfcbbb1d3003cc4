"""Tests for the SimpleFlight-style cascaded PID flight controller."""

from __future__ import annotations

import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.env.flightctl import (
    Pid,
    PidGains,
    SimpleFlightController,
    SimpleFlightGains,
    VelocityTarget,
)
from repro.env.physics import AccelCommand, DroneState, QuadrotorDynamics
from repro.env.worlds import tunnel_world

DT = 1.0 / 60.0


class TestPid:
    def test_proportional(self):
        pid = Pid(PidGains(kp=2.0))
        assert pid.update(1.5, DT) == pytest.approx(3.0)

    def test_integral_accumulates(self):
        pid = Pid(PidGains(kp=0.0, ki=1.0))
        out1 = pid.update(1.0, 0.5)
        out2 = pid.update(1.0, 0.5)
        assert out2 > out1

    def test_integral_clamped(self):
        pid = Pid(PidGains(kp=0.0, ki=1.0, integral_limit=0.5))
        for _ in range(100):
            out = pid.update(10.0, 0.1)
        assert out == pytest.approx(0.5)

    def test_derivative_reacts_to_change(self):
        pid = Pid(PidGains(kp=0.0, kd=1.0))
        pid.update(0.0, DT)
        out = pid.update(1.0, DT)
        assert out == pytest.approx(1.0 / DT)

    def test_derivative_zero_on_first_call(self):
        pid = Pid(PidGains(kp=0.0, kd=1.0))
        assert pid.update(5.0, DT) == 0.0

    def test_output_limit(self):
        pid = Pid(PidGains(kp=100.0, output_limit=2.0))
        assert pid.update(10.0, DT) == 2.0
        assert pid.update(-10.0, DT) == -2.0

    def test_reset(self):
        pid = Pid(PidGains(kp=1.0, ki=1.0, kd=1.0))
        pid.update(1.0, DT)
        pid.reset()
        # After reset, behaves like the first call again.
        assert pid.update(2.0, DT) == pytest.approx(2.0 + 2.0 * DT)


class TestController:
    def test_unarmed_outputs_nothing(self):
        ctl = SimpleFlightController()
        cmd = ctl.update(DroneState(), DT)
        assert (cmd.a_forward, cmd.a_lateral, cmd.a_vertical, cmd.yaw_accel) == (0, 0, 0, 0)

    def test_arm_sets_altitude_hold(self):
        ctl = SimpleFlightController()
        ctl.arm(altitude=2.0)
        assert ctl.armed
        assert ctl.target.altitude == 2.0
        cmd = ctl.update(DroneState(z=0.0), DT)
        assert cmd.a_vertical > 0.0  # climb toward the hold altitude

    def test_tracks_most_recent_target(self):
        ctl = SimpleFlightController()
        ctl.arm()
        ctl.set_target(VelocityTarget(v_forward=1.0))
        ctl.set_target(VelocityTarget(v_forward=5.0))
        assert ctl.target.v_forward == 5.0
        assert ctl.targets_received == 2

    def test_forward_error_commands_acceleration(self):
        ctl = SimpleFlightController()
        ctl.arm()
        ctl.set_target(VelocityTarget(v_forward=3.0, altitude=1.5))
        cmd = ctl.update(DroneState(u=0.0, z=1.5), DT)
        assert cmd.a_forward > 0.0

    def test_overspeed_commands_braking(self):
        ctl = SimpleFlightController()
        ctl.arm()
        ctl.set_target(VelocityTarget(v_forward=1.0, altitude=1.5))
        cmd = ctl.update(DroneState(u=5.0, z=1.5), DT)
        assert cmd.a_forward < 0.0

    def test_yaw_rate_tracking(self):
        ctl = SimpleFlightController()
        ctl.arm()
        ctl.set_target(VelocityTarget(yaw_rate=0.5, altitude=1.5))
        cmd = ctl.update(DroneState(r=0.0, z=1.5), DT)
        assert cmd.yaw_accel > 0.0

    def test_reset_disarms(self):
        ctl = SimpleFlightController()
        ctl.arm()
        ctl.set_target(VelocityTarget(v_forward=3.0))
        ctl.reset()
        assert not ctl.armed
        assert ctl.targets_received == 0


class TestClosedLoopTracking:
    """Controller + dynamics must actually converge to targets."""

    def simulate(self, target: VelocityTarget, seconds: float = 8.0) -> DroneState:
        world = tunnel_world(length=500.0, width=100.0)  # huge: no walls in play
        dyn = QuadrotorDynamics(world, initial_state=DroneState(x=5.0, y=0.0, z=1.5))
        ctl = SimpleFlightController()
        ctl.arm(altitude=target.altitude)
        ctl.set_target(target)
        for _ in range(int(seconds / DT)):
            dyn.step(ctl.update(dyn.state, DT), DT)
        return dyn.state

    def test_converges_to_forward_velocity(self):
        state = self.simulate(VelocityTarget(v_forward=3.0, altitude=1.5))
        assert state.u == pytest.approx(3.0, abs=0.3)

    def test_converges_to_high_velocity(self):
        state = self.simulate(VelocityTarget(v_forward=9.0, altitude=1.5))
        assert state.u == pytest.approx(9.0, abs=0.9)

    def test_holds_altitude(self):
        state = self.simulate(VelocityTarget(v_forward=3.0, altitude=1.5))
        assert state.z == pytest.approx(1.5, abs=0.3)

    def test_tracks_yaw_rate(self):
        state = self.simulate(VelocityTarget(yaw_rate=0.4, altitude=1.5), seconds=2.0)
        assert state.r == pytest.approx(0.4, abs=0.1)

    def test_lateral_velocity_tracked(self):
        state = self.simulate(VelocityTarget(v_lateral=1.0, altitude=1.5))
        assert state.v == pytest.approx(1.0, abs=0.2)


# ---------------------------------------------------------------------------
# Same bits as the object-per-frame controller
# ---------------------------------------------------------------------------
class ReferencePid:
    """``Pid.update`` as written before it read its gains once and
    clamped with conditional expressions: builtin ``min``/``max`` over the
    gains object on every call."""

    def __init__(self, gains: PidGains):
        self.gains = gains
        self._integral = 0.0
        self._last_error: float | None = None

    def update(self, error: float, dt: float) -> float:
        g = self.gains
        self._integral = min(
            max(self._integral + error * dt, -g.integral_limit), g.integral_limit
        )
        derivative = 0.0
        if self._last_error is not None and dt > 0:
            derivative = (error - self._last_error) / dt
        self._last_error = error
        out = g.kp * error + g.ki * self._integral + g.kd * derivative
        return min(max(out, -g.output_limit), g.output_limit)


def reference_command(pids, target: VelocityTarget, state: DroneState, dt: float):
    """``SimpleFlightController.update`` as written before, keyword
    construction and builtin clamps included."""
    fwd, lat, vert, yaw = pids
    return AccelCommand(
        a_forward=fwd.update(target.v_forward - state.u, dt),
        a_lateral=lat.update(target.v_lateral - state.v, dt),
        a_vertical=vert.update(
            min(max(target.altitude - state.z, -1.0), 1.0) * 1.5 - state.vz, dt
        ),
        yaw_accel=yaw.update(target.yaw_rate - state.r, dt),
    )


def _hex(values) -> list[str]:
    return [float(v).hex() for v in values]


#: Finite values, signed zeros, infinities and NaN.
ANY_FLOAT = st.one_of(
    st.floats(-50.0, 50.0),
    st.sampled_from([0.0, -0.0, 1e-300, -1e-300, math.inf, -math.inf, math.nan]),
)


class TestSameBitsAsReference:
    def test_gains_are_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            PidGains(kp=1.0).kp = 2.0

    @settings(max_examples=200, deadline=None)
    @given(
        kp=st.floats(0.0, 10.0), ki=st.floats(0.0, 2.0), kd=st.floats(0.0, 1.0),
        integral_limit=st.floats(0.0, 5.0),
        output_limit=st.one_of(st.just(math.inf), st.floats(0.0, 10.0)),
        errors=st.lists(ANY_FLOAT, min_size=1, max_size=40),
        dt=st.sampled_from([1.0 / 60.0, 0.01, 0.0, -0.0]),
    )
    def test_pid_matches_reference(self, kp, ki, kd, integral_limit, output_limit, errors, dt):
        gains = PidGains(kp, ki, kd, integral_limit, output_limit)
        pid, reference = Pid(gains), ReferencePid(gains)
        got = [pid.update(e, dt) for e in errors]
        want = [reference.update(e, dt) for e in errors]
        assert _hex(got) == _hex(want)

    @settings(max_examples=100, deadline=None)
    @given(
        targets=st.lists(st.tuples(ANY_FLOAT, ANY_FLOAT, ANY_FLOAT, ANY_FLOAT), min_size=1),
        states=st.lists(
            st.tuples(ANY_FLOAT, ANY_FLOAT, ANY_FLOAT, ANY_FLOAT, ANY_FLOAT), min_size=1
        ),
    )
    def test_controller_matches_reference(self, targets, states):
        gains = SimpleFlightGains()
        ctl = SimpleFlightController(gains)
        ctl.arm()
        pids = [
            ReferencePid(g) for g in (gains.forward, gains.lateral, gains.vertical, gains.yaw_rate)
        ]
        for (v_f, v_l, yaw_rate, altitude), (u, v, z, vz, r) in zip(targets, states):
            target = VelocityTarget(v_f, v_l, yaw_rate, altitude)
            state = DroneState(u=u, v=v, z=z, vz=vz, r=r)
            ctl.set_target(target)
            got = ctl.update(state, DT)
            want = reference_command(pids, target, state, DT)
            assert _hex(dataclasses.astuple(got)) == _hex(dataclasses.astuple(want))
