"""Planar geometry primitives used by the environment simulator.

The UAV experiments in the paper are corridor-navigation tasks where the
relevant geometry is planar (the drone holds altitude); this module provides
the 2D primitives the worlds, physics, sensors and renderer are built on:
segments, rays, poses, distance queries and ray casting.

All heavy queries accept numpy arrays so the renderer can cast a whole
camera's worth of rays in one call.
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

    def point_at(self, t: float) -> np.ndarray:
        """Point at parameter ``t`` in [0, 1] along the segment."""
        return np.array(
            [self.ax + t * (self.bx - self.ax), self.ay + t * (self.by - self.ay)]
        )

    def distance_to_point(self, point: np.ndarray) -> float:
        """Euclidean distance from ``point`` to the closest point on the
        segment."""
        p = np.asarray(point, dtype=float)
        d = self.b - self.a
        denom = float(d @ d)
        if denom < _EPS:
            return float(np.linalg.norm(p - self.a))
        t = float(np.clip((p - self.a) @ d / denom, 0.0, 1.0))
        closest = self.a + t * d
        return float(np.linalg.norm(p - closest))


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

    The worlds store their wall geometry in one soup so the depth sensor
    and camera renderer can intersect many rays against all walls with
    numpy broadcasting rather than Python loops.
    """

    def __init__(self, segments: list[Segment2]):
        if not segments:
            raise ValueError("SegmentSoup requires at least one segment")
        self.segments = list(segments)
        self._ax = np.array([s.ax for s in segments])
        self._ay = np.array([s.ay for s in segments])
        self._dx = np.array([s.bx - s.ax for s in segments])
        self._dy = np.array([s.by - s.ay for s in segments])

    def __len__(self) -> int:
        return len(self.segments)

    def min_distance(self, point: np.ndarray) -> float:
        """Distance from ``point`` to the nearest segment in the soup."""
        p = np.asarray(point, dtype=float)
        px = p[0] - self._ax
        py = p[1] - self._ay
        denom = self._dx * self._dx + self._dy * self._dy
        denom = np.where(denom < _EPS, 1.0, denom)
        t = np.clip((px * self._dx + py * self._dy) / denom, 0.0, 1.0)
        cx = px - t * self._dx
        cy = py - t * self._dy
        return float(np.sqrt(np.min(cx * cx + cy * cy)))

    def cast_rays(
        self,
        origin: np.ndarray,
        angles: np.ndarray,
        max_range: float = 1e9,
    ) -> np.ndarray:
        """Cast rays from ``origin`` at the given world-frame ``angles``.

        Returns an array of hit distances, one per angle; misses report
        ``max_range``.  Uses the standard ray/segment parametric solve,
        broadcast over (rays x segments).
        """
        origin = np.asarray(origin, dtype=float)
        angles = np.atleast_1d(np.asarray(angles, dtype=float))
        rdx = np.cos(angles)[:, None]  # (R, 1)
        rdy = np.sin(angles)[:, None]
        sx = self._ax[None, :] - origin[0]  # (1, S)
        sy = self._ay[None, :] - origin[1]
        # Solve origin + t*rd == a + u*sd for t >= 0, 0 <= u <= 1.
        denom = rdx * self._dy[None, :] - rdy * self._dx[None, :]
        safe = np.abs(denom) > _EPS
        denom_safe = np.where(safe, denom, 1.0)
        t = (sx * self._dy[None, :] - sy * self._dx[None, :]) / denom_safe
        u = (sx * rdy - sy * rdx) / denom_safe
        valid = safe & (t >= 0.0) & (u >= 0.0) & (u <= 1.0)
        t = np.where(valid, t, max_range)
        return np.minimum(t.min(axis=1), max_range)

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
        self._seg_lengths = np.sqrt((deltas**2).sum(axis=1))
        if np.any(self._seg_lengths < _EPS):
            raise ValueError("Polyline contains a degenerate segment")
        self._cum = np.concatenate([[0.0], np.cumsum(self._seg_lengths)])
        self._cum_list = self._cum.tolist()
        self._dirs = deltas / self._seg_lengths[:, None]

    @property
    def length(self) -> float:
        return float(self._cum[-1])

    def point_at_arclength(self, s: float) -> np.ndarray:
        """World point at arclength ``s`` (clamped to the polyline)."""
        s = float(np.clip(s, 0.0, self.length))
        i = int(np.searchsorted(self._cum, s, side="right") - 1)
        i = min(i, len(self._seg_lengths) - 1)
        return self.points[i] + (s - self._cum[i]) * self._dirs[i]

    def tangent_at_arclength(self, s: float) -> np.ndarray:
        """Unit tangent at arclength ``s``."""
        # Plain-float clamp and bisect pick the segment np.clip and
        # np.searchsorted(side="right") would, without numpy's per-call
        # overhead: every course-state read comes through here.
        cum = self._cum_list
        s = min(max(float(s), 0.0), cum[-1])
        i = min(bisect.bisect_right(cum, s) - 1, len(cum) - 2)
        return self._dirs[i].copy()

    def normal_at_arclength(self, s: float) -> np.ndarray:
        """Unit left-normal at arclength ``s``."""
        t = self.tangent_at_arclength(s)
        return np.array([-t[1], t[0]])

    def project(self, point: np.ndarray) -> tuple[float, float]:
        """Project a point onto the polyline.

        Returns ``(s, d)``: arclength of the closest centerline point and
        the signed lateral offset (positive to the left of travel).
        """
        p = np.asarray(point, dtype=float)
        rel = p[None, :] - self.points[:-1]
        t = (rel * self._dirs).sum(axis=1)
        t = np.clip(t, 0.0, self._seg_lengths)
        closest = self.points[:-1] + t[:, None] * self._dirs
        d2 = ((p[None, :] - closest) ** 2).sum(axis=1)
        i = int(np.argmin(d2))
        s = float(self._cum[i] + t[i])
        normal = np.array([-self._dirs[i][1], self._dirs[i][0]])
        d = float((p - closest[i]) @ normal)
        return s, d

    def offset(self, distance: float) -> "Polyline":
        """A polyline offset laterally by ``distance`` (positive = left).

        Offsets each vertex along the averaged normal of its adjacent
        segments — adequate for the gentle curvatures of corridor worlds.
        """
        normals = np.empty_like(self.points)
        seg_normals = np.column_stack([-self._dirs[:, 1], self._dirs[:, 0]])
        normals[0] = seg_normals[0]
        normals[-1] = seg_normals[-1]
        if len(self.points) > 2:
            avg = seg_normals[:-1] + seg_normals[1:]
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
