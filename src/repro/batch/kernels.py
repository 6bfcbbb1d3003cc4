"""Loop-free numpy kernels for the batched mission engine.

Every function here advances *all* lanes of a mission batch with one
vectorized expression per arithmetic step — there are no Python-level
loops over the batch axis in this module.  Throughput is gated by
measurement, not loop style: the ``fig11-batched`` perfbench workload
and its CI step (zero serial fallbacks, 16 lanes per round).

The FPV rasterizer is not defined here: :func:`render_lanes` lives in
:mod:`repro.env.camera`, where the serial camera renders each frame as a
batch of one lane.  It is re-exported so the engine reaches every
kernel through this module.  Dynamics and PID control stay scalar on
the serial path; as K=1 lane kernels they measured slower than the
scalar code.

Bit-exactness contract
----------------------
The dynamics and PID kernels replicate the serial arithmetic of their
counterparts — :mod:`repro.env.physics` and :mod:`repro.env.flightctl`
— operation for operation, in the same order, so a lane of the batch
produces bit-for-bit the floats the serial simulator produces.  The
serial frame works in plain-float locals (gains read once, no per-frame
command objects, clamps written as ``lo if lo > x else x`` then ``hi if
hi < x else x``, which pick what builtin ``min(max(x, lo), hi)`` picks),
but every operation and its order are still the ones mirrored here.  This
relies on elementwise numpy ufuncs (``np.cos``/``np.sin``/``np.sqrt``/
``np.fmod``, arithmetic, compare/select) computing the same IEEE-754
result as the scalar ``math.*`` / Python-float expression; that holds on
this code path and is pinned by the batched-vs-serial oracle.  World
queries are not replicated: :func:`wall_distances` and
:func:`project_lanes` call the :mod:`repro.env.geometry` kernels the
serial simulator calls, with ``(K, 1)`` columns instead of plain floats.
The operations that do *not* vectorize bit-identically (``math.hypot``,
the 2-vector BLAS dot in :meth:`Polyline.project
<repro.env.geometry.Polyline.project>`) stay as per-lane scalar loops in
:mod:`repro.batch.engine`; the heading error's ``math.atan2`` is left to
each lane's :meth:`EnvSimulator.course_state
<repro.env.simulator.EnvSimulator.course_state>`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.env.camera import render_lanes  # noqa: F401 - re-exported for the engine
from repro.env.physics import QuadrotorParams
from repro.env.worlds import World


def wrap_angles(theta: np.ndarray) -> np.ndarray:
    """Vectorized :func:`repro.env.geometry.wrap_angle` — wrap to (-pi, pi].

    ``np.fmod`` matches ``math.fmod`` bit-for-bit (both defer to the C
    library ``fmod``), and ``np.pi == math.pi``.
    """
    wrapped = np.fmod(theta + np.pi, 2.0 * np.pi)
    wrapped = np.where(wrapped <= 0.0, wrapped + 2.0 * np.pi, wrapped)
    return wrapped - np.pi


# ----------------------------------------------------------------------
# Flight control (repro.env.flightctl)
# ----------------------------------------------------------------------
@dataclass
class PidLanes:
    """One scalar :class:`~repro.env.flightctl.Pid` channel across K lanes."""

    kp: float
    ki: float
    kd: float
    integral_limit: float
    output_limit: float
    integral: np.ndarray  # (K,)
    last_error: np.ndarray  # (K,); 0.0 until has_last
    has_last: np.ndarray  # (K,) bool

    @staticmethod
    def zeros(gains, k: int) -> "PidLanes":
        """Fresh channel state for ``k`` lanes (matches ``Pid.__init__``)."""
        return PidLanes(
            kp=gains.kp,
            ki=gains.ki,
            kd=gains.kd,
            integral_limit=gains.integral_limit,
            output_limit=gains.output_limit,
            integral=np.zeros(k),
            last_error=np.zeros(k),
            has_last=np.zeros(k, dtype=bool),
        )

    def update(self, error: np.ndarray, dt: float) -> np.ndarray:
        """Vectorized ``Pid.update``: same clamp/derivative/output order.

        ``last_error`` is initialized to 0.0, so the masked-out derivative
        branch divides finite numbers and ``np.where`` discards it —
        exactly the value the serial ``if`` would have skipped.
        """
        self.integral[:] = np.minimum(
            np.maximum(self.integral + error * dt, -self.integral_limit),
            self.integral_limit,
        )
        derivative = np.where(
            self.has_last, (error - self.last_error) / dt, 0.0
        )
        self.last_error[:] = error
        self.has_last[:] = True
        out = self.kp * error + self.ki * self.integral + self.kd * derivative
        return np.minimum(np.maximum(out, -self.output_limit), self.output_limit)

    def gather(self, idx: np.ndarray) -> "PidLanes":
        """Compact working copy for the active lanes ``idx``."""
        return PidLanes(
            kp=self.kp,
            ki=self.ki,
            kd=self.kd,
            integral_limit=self.integral_limit,
            output_limit=self.output_limit,
            integral=self.integral[idx],
            last_error=self.last_error[idx],
            has_last=self.has_last[idx],
        )

    def scatter(self, idx: np.ndarray, working: "PidLanes") -> None:
        """Write a working copy back into the full lane arrays."""
        self.integral[idx] = working.integral
        self.last_error[idx] = working.last_error
        self.has_last[idx] = working.has_last


def vertical_errors(altitude: np.ndarray, z: np.ndarray, vz: np.ndarray) -> np.ndarray:
    """The altitude-hold error term of ``SimpleFlightController.update``."""
    return np.minimum(np.maximum(altitude - z, -1.0), 1.0) * 1.5 - vz


# ----------------------------------------------------------------------
# Quadrotor dynamics (repro.env.physics)
# ----------------------------------------------------------------------
@dataclass
class DynamicsLanes:
    """Kinematic + actuator state of K lanes (``QuadrotorDynamics``)."""

    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    yaw: np.ndarray
    u: np.ndarray
    v: np.ndarray
    vz: np.ndarray
    r: np.ndarray
    ap_forward: np.ndarray  # first-order actuator state (_applied)
    ap_lateral: np.ndarray
    ap_vertical: np.ndarray
    ap_yaw: np.ndarray
    recovery_until: np.ndarray

    _FIELDS = (
        "x", "y", "z", "yaw", "u", "v", "vz", "r",
        "ap_forward", "ap_lateral", "ap_vertical", "ap_yaw", "recovery_until",
    )

    @staticmethod
    def zeros(k: int) -> "DynamicsLanes":
        lanes = DynamicsLanes(*(np.zeros(k) for _ in DynamicsLanes._FIELDS))
        lanes.recovery_until[:] = -1.0  # QuadrotorDynamics._recovery_until
        return lanes

    def gather(self, idx: np.ndarray) -> "DynamicsLanes":
        return DynamicsLanes(
            *(getattr(self, name)[idx] for name in DynamicsLanes._FIELDS)
        )

    def scatter(self, idx: np.ndarray, working: "DynamicsLanes") -> None:
        self.x[idx] = working.x
        self.y[idx] = working.y
        self.z[idx] = working.z
        self.yaw[idx] = working.yaw
        self.u[idx] = working.u
        self.v[idx] = working.v
        self.vz[idx] = working.vz
        self.r[idx] = working.r
        self.ap_forward[idx] = working.ap_forward
        self.ap_lateral[idx] = working.ap_lateral
        self.ap_vertical[idx] = working.ap_vertical
        self.ap_yaw[idx] = working.ap_yaw
        self.recovery_until[idx] = working.recovery_until


def applied_commands(
    lanes: DynamicsLanes,
    time: float,
    cmd_forward: np.ndarray,
    cmd_lateral: np.ndarray,
    cmd_vertical: np.ndarray,
    cmd_yaw: np.ndarray,
    dt: float,
    p: QuadrotorParams,
) -> None:
    """Recovery override + clamp + first-order actuator lag, in place.

    Mirrors the first half of ``QuadrotorDynamics.step``: lanes still in
    post-collision recovery ignore the controller and brake to hover.
    """
    recovering = time < lanes.recovery_until
    denom = max(p.recovery_time * 0.5, dt)
    cmd_forward = np.where(recovering, -lanes.u / denom, cmd_forward)
    cmd_lateral = np.where(recovering, -lanes.v / denom, cmd_lateral)
    cmd_vertical = np.where(recovering, -lanes.vz / denom, cmd_vertical)
    cmd_yaw = np.where(recovering, -lanes.r / denom, cmd_yaw)

    cmd_forward = np.minimum(np.maximum(cmd_forward, -p.max_linear_accel), p.max_linear_accel)
    cmd_lateral = np.minimum(np.maximum(cmd_lateral, -p.max_linear_accel), p.max_linear_accel)
    cmd_vertical = np.minimum(np.maximum(cmd_vertical, -p.max_vertical_accel), p.max_vertical_accel)
    cmd_yaw = np.minimum(np.maximum(cmd_yaw, -p.max_yaw_accel), p.max_yaw_accel)

    alpha = dt / (p.actuator_tau + dt)
    lanes.ap_forward += alpha * (cmd_forward - lanes.ap_forward)
    lanes.ap_lateral += alpha * (cmd_lateral - lanes.ap_lateral)
    lanes.ap_vertical += alpha * (cmd_vertical - lanes.ap_vertical)
    lanes.ap_yaw += alpha * (cmd_yaw - lanes.ap_yaw)


def integrate_velocities(lanes: DynamicsLanes, dt: float, p: QuadrotorParams) -> None:
    """Body-frame velocity integration with drag, in place."""
    lanes.u += (lanes.ap_forward - p.linear_drag * lanes.u) * dt
    lanes.v += (lanes.ap_lateral - p.linear_drag * lanes.v) * dt
    lanes.vz += (lanes.ap_vertical - p.linear_drag * lanes.vz) * dt
    lanes.r += (lanes.ap_yaw - p.yaw_drag * lanes.r) * dt


def limit_speed(lanes: DynamicsLanes, speed: np.ndarray, p: QuadrotorParams) -> None:
    """Clamp planar speed to ``max_speed``, in place.

    ``speed`` is the per-lane ``math.hypot(u, v)`` (computed by the engine;
    ``np.hypot`` is not bit-identical).  Non-exceeding lanes multiply by
    exactly 1.0 — a bitwise identity — so only the lanes the serial code
    would have scaled change.
    """
    exceeding = speed > p.max_speed
    scale = np.where(
        exceeding, p.max_speed / np.where(exceeding, speed, 1.0), 1.0
    )
    lanes.u *= scale
    lanes.v *= scale


def integrate_pose(
    lanes: DynamicsLanes, dt: float, p: QuadrotorParams
) -> tuple[np.ndarray, np.ndarray]:
    """Yaw-rate clamp, yaw wrap, and position integration.

    Returns the *candidate* ``(new_x, new_y)`` — the engine applies the
    collision test before committing them (``z`` commits unconditionally,
    as in serial).
    """
    lanes.r = np.minimum(np.maximum(lanes.r, -p.max_yaw_rate), p.max_yaw_rate)
    lanes.yaw = wrap_angles(lanes.yaw + lanes.r * dt)
    c = np.cos(lanes.yaw)
    s = np.sin(lanes.yaw)
    new_x = lanes.x + (lanes.u * c - lanes.v * s) * dt
    new_y = lanes.y + (lanes.u * s + lanes.v * c) * dt
    lanes.z += lanes.vz * dt
    return new_x, new_y


# ----------------------------------------------------------------------
# World geometry (repro.env.geometry / repro.env.worlds)
# ----------------------------------------------------------------------
def wall_distances(px_: np.ndarray, py_: np.ndarray, world: World) -> np.ndarray:
    """Per-lane distance to the nearest wall: row ``k`` is lane ``k``'s
    ``SegmentSoup.min_distance``, bit for bit (the same kernel)."""
    return world.walls.nearest_distance(px_[:, None], py_[:, None])


def project_lanes(
    points: np.ndarray, world: World
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Batched ``Polyline.project`` over (K, 2) ``points``.

    Returns ``(s, idx, diff)``: arclength per lane, the nearest segment
    index, and the ``point - closest`` residual rows.  The signed lateral
    offset ``d`` is *not* computed here — serial ``project`` forms it with
    a 2-vector BLAS dot whose rounding differs from any expanded sum, so
    the engine finishes it with the identical per-lane ``diff @ normal``.
    """
    line = world.centerline
    idx, t, dx, dy = line.nearest_segment(points[:, :1], points[:, 1:])
    return line.cum[idx] + t, idx, np.column_stack([dx, dy])
