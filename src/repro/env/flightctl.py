"""SimpleFlight-style flight controller (cascaded PID hierarchy).

The paper models the flight controller with AirSim's software-in-the-loop
SimpleFlight controller: "a hierarchy of PID controllers that manage the
position, velocity, and angle of attack targets", which "takes in angular
and velocity control targets from the companion computer, and uses the
control hierarchy to track the most recent target received" (Section 4.2.2).

We reproduce that structure: the companion computer sends
:class:`VelocityTarget` commands (body-frame linear velocity plus yaw
rate); the controller keeps the most recent one and produces per-frame
body-frame acceleration commands through velocity PID loops plus an
altitude-hold loop.  Hard real-time low-level control (motor mixing, ESC
PWM) sits below the acceleration abstraction, exactly as it sits below the
velocity abstraction in the real system.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.env.physics import AccelCommand, DroneState


@dataclass(frozen=True)
class VelocityTarget:
    """Companion-computer command: body-frame velocity + yaw-rate targets.

    This matches Section 4.1: "The companion computer sends commands to the
    flight controller containing angular and linear velocity targets."
    """

    v_forward: float = 0.0
    v_lateral: float = 0.0
    yaw_rate: float = 0.0
    altitude: float = 1.5  # altitude-hold setpoint, m

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.v_forward, self.v_lateral, self.yaw_rate, self.altitude)


@dataclass(frozen=True)
class PidGains:
    kp: float
    ki: float = 0.0
    kd: float = 0.0
    integral_limit: float = 2.0
    output_limit: float = float("inf")


class Pid:
    """A scalar PID loop with integral clamping and output limiting."""

    __slots__ = ("gains", "_kp", "_ki", "_kd", "_ilim", "_olim", "_integral", "_last_error")

    def __init__(self, gains: PidGains):
        # The gains are frozen, so they are read once here, not per update.
        self.gains = gains
        self._kp = gains.kp
        self._ki = gains.ki
        self._kd = gains.kd
        self._ilim = gains.integral_limit
        self._olim = gains.output_limit
        self._integral = 0.0
        self._last_error: float | None = None

    def reset(self) -> None:
        self._integral = 0.0
        self._last_error = None

    def update(self, error: float, dt: float) -> float:
        # ``lo if lo > x else x`` then ``hi if hi < x else x`` pick what
        # builtin ``min(max(x, lo), hi)`` picks, signed zeros and NaN
        # included, with no call.
        hi = self._ilim
        lo = -hi
        integral = self._integral + error * dt
        integral = lo if lo > integral else integral
        integral = self._integral = hi if hi < integral else integral
        derivative = 0.0
        last = self._last_error
        if last is not None and dt > 0:
            derivative = (error - last) / dt
        self._last_error = error
        out = self._kp * error + self._ki * integral + self._kd * derivative
        hi = self._olim
        lo = -hi
        out = lo if lo > out else out
        return hi if hi < out else out


@dataclass
class SimpleFlightGains:
    """Gain set for the full cascade; defaults tuned for the corridor
    worlds at the paper's flight speeds (3-12 m/s)."""

    forward: PidGains = field(default_factory=lambda: PidGains(kp=2.0, ki=0.4))
    lateral: PidGains = field(default_factory=lambda: PidGains(kp=2.4, ki=0.4))
    vertical: PidGains = field(default_factory=lambda: PidGains(kp=1.8, ki=0.2))
    yaw_rate: PidGains = field(default_factory=lambda: PidGains(kp=8.0))


class SimpleFlightController:
    """Tracks the most recent :class:`VelocityTarget` with PID loops.

    The controller is stateful across frames (PID integrals) and is reset
    together with the vehicle.  ``set_target`` may be called at any frame
    boundary — typically whenever the companion computer's latest TARGET
    command arrives through the co-simulation bridge.
    """

    def __init__(self, gains: SimpleFlightGains | None = None):
        self.gains = gains or SimpleFlightGains()
        self._fwd = Pid(self.gains.forward)
        self._lat = Pid(self.gains.lateral)
        self._vert = Pid(self.gains.vertical)
        self._yaw = Pid(self.gains.yaw_rate)
        self.target = VelocityTarget(0.0, 0.0, 0.0, 0.0)
        self.armed = False
        self.targets_received = 0

    def reset(self) -> None:
        for pid in (self._fwd, self._lat, self._vert, self._yaw):
            pid.reset()
        self.target = VelocityTarget(0.0, 0.0, 0.0, 0.0)
        self.armed = False
        self.targets_received = 0

    def arm(self, altitude: float = 1.5) -> None:
        """Arm and begin holding ``altitude`` (the takeoff behaviour)."""
        self.armed = True
        self.target = VelocityTarget(0.0, 0.0, 0.0, altitude)

    def set_target(self, target: VelocityTarget) -> None:
        """Replace the tracked target (most-recent-wins semantics)."""
        self.target = target
        self.targets_received += 1

    def update(self, state: DroneState, dt: float) -> AccelCommand:
        """Compute this frame's acceleration command."""
        if not self.armed:
            return AccelCommand()
        t = self.target
        altitude_error = t.altitude - state.z
        altitude_error = -1.0 if -1.0 > altitude_error else altitude_error
        altitude_error = 1.0 if 1.0 < altitude_error else altitude_error
        return AccelCommand(
            self._fwd.update(t.v_forward - state.u, dt),
            self._lat.update(t.v_lateral - state.v, dt),
            self._vert.update(altitude_error * 1.5 - state.vz, dt),
            self._yaw.update(t.yaw_rate - state.r, dt),
        )
