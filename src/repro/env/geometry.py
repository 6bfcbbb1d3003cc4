"""Planar geometry primitives used by the environment simulator.

The UAV experiments in the paper are corridor-navigation tasks where the
relevant geometry is planar (the drone holds altitude); this module provides
the 2D primitives the worlds, physics, sensors and renderer are built on:
segments, rays, poses, distance queries and ray casting.

Every world query has exactly one implementation, here:

* :meth:`Polyline.nearest_segment` — course projection (the serial
  simulator, the MPC rollout, the camera's floor shader and the batch
  engine's lanes);
* :meth:`SegmentSoup.nearest_distance` — wall distance (the collision
  test, serial and batched);
* :meth:`SegmentSoup.cast` — the ray/segment solve (depth sensor, lidar,
  camera wall columns).

Each kernel is one set of expressions over one-coordinate planes, so one
point (plain floats against ``(S,)`` segment arrays) and many points
(``(P, 1)`` columns against ``(P, S)`` planes) run the same arithmetic
and get the same bits.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

_EPS = 1e-12


def wrap_angle(theta: float) -> float:
    """Wrap an angle to the interval (-pi, pi]."""
    wrapped = math.fmod(theta + math.pi, 2.0 * math.pi)
    if wrapped <= 0.0:
        wrapped += 2.0 * math.pi
    return wrapped - math.pi


def angle_difference(a: float, b: float) -> float:
    """Smallest signed difference ``a - b`` between two angles."""
    return wrap_angle(a - b)


@dataclass(frozen=True)
class Pose2:
    """A planar pose: position ``(x, y)`` and heading ``yaw`` (radians).

    ``yaw = 0`` points along +x; positive yaw rotates counter-clockwise.
    """

    x: float
    y: float
    yaw: float

    @property
    def position(self) -> np.ndarray:
        return np.array([self.x, self.y], dtype=float)

    @property
    def forward(self) -> np.ndarray:
        """Unit vector in the heading direction."""
        return np.array([math.cos(self.yaw), math.sin(self.yaw)])

    @property
    def left(self) -> np.ndarray:
        """Unit vector 90 degrees counter-clockwise from the heading."""
        return np.array([-math.sin(self.yaw), math.cos(self.yaw)])

    def transform_to_body(self, point: np.ndarray) -> np.ndarray:
        """Express a world-frame point in this pose's body frame."""
        delta = np.asarray(point, dtype=float) - self.position
        return np.array([float(delta @ self.forward), float(delta @ self.left)])

    def transform_to_world(self, point: np.ndarray) -> np.ndarray:
        """Express a body-frame point in the world frame."""
        point = np.asarray(point, dtype=float)
        return self.position + point[0] * self.forward + point[1] * self.left


@dataclass(frozen=True)
class Segment2:
    """A 2D line segment from ``a`` to ``b`` (each an ``(x, y)`` pair)."""

    ax: float
    ay: float
    bx: float
    by: float

    @property
    def a(self) -> np.ndarray:
        return np.array([self.ax, self.ay])

    @property
    def b(self) -> np.ndarray:
        return np.array([self.bx, self.by])

    @property
    def length(self) -> float:
        return float(math.hypot(self.bx - self.ax, self.by - self.ay))


@dataclass(frozen=True)
class Ray2:
    """A 2D ray: origin plus unit direction."""

    ox: float
    oy: float
    dx: float
    dy: float

    @staticmethod
    def from_pose(pose: Pose2, relative_angle: float = 0.0) -> "Ray2":
        theta = pose.yaw + relative_angle
        return Ray2(pose.x, pose.y, math.cos(theta), math.sin(theta))


class SegmentSoup:
    """A batch of segments stored column-wise for vectorized queries.

    The worlds store their wall geometry in one soup.  Its two kernels,
    :meth:`nearest_distance` and :meth:`cast`, answer every wall query:
    the collision test, the depth sensor, the lidar and the camera's wall
    columns, for one point or origin and for many.
    """

    def __init__(self, segments: list[Segment2]):
        if not segments:
            raise ValueError("SegmentSoup requires at least one segment")
        self.segments = list(segments)
        self._ax = np.array([s.ax for s in segments])
        self._ay = np.array([s.ay for s in segments])
        self._dx = np.array([s.bx - s.ax for s in segments])
        self._dy = np.array([s.by - s.ay for s in segments])
        denom = self._dx * self._dx + self._dy * self._dy
        # Squared segment lengths; a degenerate segment divides by 1.0.
        self._denom = np.where(denom < _EPS, 1.0, denom)
        # One soup is shared by every simulator in a process (cached_world).
        for array in (self._ax, self._ay, self._dx, self._dy, self._denom):
            array.setflags(write=False)

    def __len__(self) -> int:
        return len(self.segments)

    def nearest_distance(
        self, px: float | np.ndarray, py: float | np.ndarray
    ) -> float | np.ndarray:
        """Distance from each point to its nearest segment.

        Plain-float ``px, py`` give one distance; ``(P, 1)`` columns give
        ``(P,)`` distances, each the float the one-point call returns.
        """
        rx = px - self._ax
        ry = py - self._ay
        t = np.clip((rx * self._dx + ry * self._dy) / self._denom, 0.0, 1.0)
        cx = rx - t * self._dx
        cy = ry - t * self._dy
        return np.sqrt((cx * cx + cy * cy).min(axis=-1))

    def min_distance(self, point: np.ndarray) -> float:
        """Distance from ``point`` to the nearest segment in the soup."""
        p = np.asarray(point, dtype=float)
        return float(self.nearest_distance(p[0], p[1]))

    def cast(
        self,
        ox: float | np.ndarray,
        oy: float | np.ndarray,
        angles: np.ndarray,
        max_range: float,
    ) -> np.ndarray:
        """Hit distance of each ray from ``(ox, oy)`` at world-frame
        ``angles``; misses report ``max_range``.

        One origin is plain floats with ``(R,)`` angles; K origins are
        ``(K, 1, 1)`` columns with ``(K, R)`` angles.  Solves
        ``origin + t*rd == a + u*sd`` for ``t >= 0``, ``0 <= u <= 1`` over
        ``(..., R, S)`` planes.  Those planes are the whole cost, so they
        are updated in place over four buffers.
        """
        rdx = np.cos(angles)[..., None]
        rdy = np.sin(angles)[..., None]
        sx = self._ax - ox
        sy = self._ay - oy
        denom = rdx * self._dy
        t = rdy * self._dx
        denom -= t
        safe = np.abs(denom) > _EPS
        denom[~safe] = 1.0
        np.divide(sx * self._dy - sy * self._dx, denom, out=t)
        u = sx * rdy
        scratch = sy * rdx
        u -= scratch
        u /= denom
        valid = safe
        valid &= t >= 0.0
        valid &= u >= 0.0
        valid &= u <= 1.0
        np.logical_not(valid, out=valid)
        t[valid] = max_range
        return np.minimum(t.min(axis=-1), max_range)

    def cast_rays(
        self,
        origin: np.ndarray,
        angles: np.ndarray,
        max_range: float = 1e9,
    ) -> np.ndarray:
        """Cast rays from ``origin`` at the given world-frame ``angles``:
        one hit distance per angle (:meth:`cast` from one origin)."""
        origin = np.asarray(origin, dtype=float)
        angles = np.atleast_1d(np.asarray(angles, dtype=float))
        return self.cast(origin[0], origin[1], angles, max_range)

    def cast_ray(
        self, origin: np.ndarray, angle: float, max_range: float = 1e9
    ) -> float:
        """Scalar convenience wrapper over :meth:`cast_rays`."""
        return float(self.cast_rays(origin, np.array([angle]), max_range)[0])


class Polyline:
    """A 2D polyline with arclength parameterization.

    The worlds use a polyline centerline to define corridor geometry and to
    answer "how far along the course is the drone, and how far off-center?"
    — the coordinates the paper's figures plot.
    """

    def __init__(self, points: np.ndarray):
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[1] != 2 or points.shape[0] < 2:
            raise ValueError("Polyline requires an (N, 2) array with N >= 2")
        self.points = points
        deltas = np.diff(points, axis=0)
        # Per-segment geometry, read-only because one world is shared by
        # every simulator in a process: lengths, cumulative arclength at
        # each vertex, unit directions and left normals, plus one
        # contiguous plane per start and direction coordinate.
        self.lengths = np.sqrt((deltas**2).sum(axis=1))
        if np.any(self.lengths < _EPS):
            raise ValueError("Polyline contains a degenerate segment")
        self.cum = np.concatenate([[0.0], np.cumsum(self.lengths)])
        self._cum_list = self.cum.tolist()
        self.units = deltas / self.lengths[:, None]
        self.normals = np.column_stack([-self.units[:, 1], self.units[:, 0]])
        self.sx, self.sy = points[:-1, 0].copy(), points[:-1, 1].copy()
        self.ux, self.uy = self.units[:, 0].copy(), self.units[:, 1].copy()
        for array in (
            self.lengths, self.cum, self.units, self.normals,
            self.sx, self.sy, self.ux, self.uy,
        ):
            array.setflags(write=False)

    @property
    def length(self) -> float:
        return float(self.cum[-1])

    def point_at_arclength(self, s: float) -> np.ndarray:
        """World point at arclength ``s`` (clamped to the polyline)."""
        s = float(np.clip(s, 0.0, self.length))
        i = int(np.searchsorted(self.cum, s, side="right") - 1)
        i = min(i, len(self.lengths) - 1)
        return self.points[i] + (s - self.cum[i]) * self.units[i]

    def tangent_at_arclength(self, s: float) -> np.ndarray:
        """Unit tangent at arclength ``s``."""
        # Plain-float clamp and bisect pick the segment np.clip and
        # np.searchsorted(side="right") would, without numpy's per-call
        # overhead: every course-state read comes through here.
        cum = self._cum_list
        s = min(max(float(s), 0.0), cum[-1])
        i = min(bisect.bisect_right(cum, s) - 1, len(cum) - 2)
        return self.units[i].copy()

    def normal_at_arclength(self, s: float) -> np.ndarray:
        """Unit left-normal at arclength ``s``."""
        t = self.tangent_at_arclength(s)
        return np.array([-t[1], t[0]])

    def nearest_segment(
        self,
        px: float | np.ndarray,
        py: float | np.ndarray,
        segments: np.ndarray | None = None,
    ):
        """Nearest segment to each point: ``(i, t, dx, dy)``.

        ``i`` is the first (lowest-index) segment at the minimum
        distance, ``t`` the clamped distance along it and ``(dx, dy)``
        the ``point - closest`` residual.  Plain-float ``px, py`` give
        scalars; ``(P, 1)`` columns give ``(P,)`` arrays, each entry the
        bits of the one-point call.  ``segments`` restricts the search to
        ascending segment indices, ``(C,)`` for one point or ``(P, C)``
        for many (the floor shader's candidate windows).
        """
        sx, sy, ux, uy, lengths = self.sx, self.sy, self.ux, self.uy, self.lengths
        if segments is not None:
            sx, sy, ux, uy = sx[segments], sy[segments], ux[segments], uy[segments]
            lengths = lengths[segments]
        t = np.clip((px - sx) * ux + (py - sy) * uy, 0.0, lengths)
        # ``closest`` first, then ``point - closest``: every recorded
        # course coordinate depends on this order.
        dx = px - (sx + t * ux)
        dy = py - (sy + t * uy)
        i = (dx * dx + dy * dy).argmin(axis=-1)
        pick = i if dx.ndim == 1 else (np.arange(dx.shape[0]), i)
        return (i if segments is None else segments[pick]), t[pick], dx[pick], dy[pick]

    def project(self, point: np.ndarray) -> tuple[float, float]:
        """Project a point onto the polyline.

        Returns ``(s, d)``: arclength of the closest centerline point and
        the signed lateral offset (positive to the left of travel).
        """
        p = np.asarray(point, dtype=float)
        i, t, dx, dy = self.nearest_segment(p[0], p[1])
        # ``d`` is a 2-vector BLAS dot; an expanded sum rounds differently
        # and every recorded mission depends on this rounding.
        return float(self.cum[i] + t), float(np.array([dx, dy]) @ self.normals[i])

    def lateral_offsets(self, i: np.ndarray, dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
        """Signed offsets of :meth:`nearest_segment` residuals as the
        expanded sum ``dx * -uy + dy * ux`` (the floor shader's and
        ``World.batch_course_frames``' rounding, not :meth:`project`'s)."""
        return dx * -self.uy[i] + dy * self.ux[i]

    def offset(self, distance: float) -> "Polyline":
        """A polyline offset laterally by ``distance`` (positive = left).

        Offsets each vertex along the averaged normal of its adjacent
        segments — adequate for the gentle curvatures of corridor worlds.
        """
        normals = np.empty_like(self.points)
        normals[0] = self.normals[0]
        normals[-1] = self.normals[-1]
        if len(self.points) > 2:
            avg = self.normals[:-1] + self.normals[1:]
            norms = np.linalg.norm(avg, axis=1, keepdims=True)
            norms = np.where(norms < _EPS, 1.0, norms)
            normals[1:-1] = avg / norms
        return Polyline(self.points + distance * normals)

    def to_segments(self) -> list[Segment2]:
        return [
            Segment2(
                float(self.points[i][0]),
                float(self.points[i][1]),
                float(self.points[i + 1][0]),
                float(self.points[i + 1][1]),
            )
            for i in range(len(self.points) - 1)
        ]
