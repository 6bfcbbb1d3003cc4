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

The one-point queries the simulator asks on every physics frame,
:meth:`SegmentSoup.min_distance` (the collision test, asked only where
the cell's clearance floor cannot answer; see the floor rule) and
:meth:`Polyline.project` (the ``(s, d)`` course coordinates), do not scan
every segment.  Each soup and polyline keeps a :class:`_CellMemo`: a
uniform grid of square cells, filled lazily, that lists for each visited
cell the segments that can be nearest to a point in it.  The query scans
only those candidates, in plain Python floats, with the array kernel's
expressions term for term.  ``np.clip`` becomes ``v if v > 0.0 else 0.0``
then ``v if v < hi else hi``: clipped against the per-segment lengths, a
``-0.0`` comes out ``+0.0``, where the builtin ``max(-0.0, 0.0)`` keeps
the sign.  (The soup's clip against scalar bounds keeps it, but its
``t`` reaches the distance only through squares.)

The cell rule: with ``c`` the cell's centre, ``D(x, j)`` the distance
from ``x`` to segment ``j`` and ``m = min_j D(c, j)``, the candidates are
every ``j`` with ``D(c, j) <= m + diagonal + slack``, in ascending index
order.  Proof that they hold the full scan's answer for every point ``p``
of the cell: ``|p - c|`` is at most half the diagonal, and ``D`` is
1-Lipschitz in the point, so a segment nearest to ``p`` has
``D(c, j) <= D(p, j) + |p - c| <= D(p, k) + |p - c| <= m + 2|p - c|``,
where ``k`` is the segment nearest to ``c``.  Every segment tied with it
for nearest passes the same bound.  ``slack`` covers rounding: the
computed distances (to the first ulps of the coordinates), a point that
rounds into a neighbouring cell, and a degenerate soup segment, whose
computed distance may be off by its length (under ``sqrt(_EPS)``).  The
first nearest segment of the full scan is therefore a candidate, and
every candidate's terms are the full scan's bits, so the minimum, the
lowest-index tie-break, ``t`` and the residual come out identical.

The floor rule: a soup cell also keeps a clearance floor
``f = m - diagonal / 2 - slack``, and :meth:`World.course_if_clear
<repro.env.worlds.World.course_if_clear>` calls a point clear of a disc
of radius ``r`` when ``f > r``, without computing its distance.  Proof
that then ``not (min_distance(p) <= r)``, the exact answer, for every
point ``p`` of the cell: by the same Lipschitz bound, the nearest
segment ``j`` of ``p`` has ``D(p, j) >= D(c, j) - |p - c| >= m - |p - c|
>= m - diagonal / 2``, and ``slack`` covers the same rounding as above
(the computed distances of ``p`` and ``c``, a point rounded into the
cell, a degenerate segment), so the computed ``min_distance(p) >= f > r``.
The bound is one-sided: ``f <= r`` proves nothing, and the exact
distance answers.  So does every point the grid does not cover, where
the floor is ``-inf``, and a NaN radius, which no floor exceeds.  A cell
visited only by floor-decided tests builds no candidate rows.

A point outside the geometry's bounding box plus ``_CELL_MARGIN``, or
with a non-finite coordinate, takes the full scan.  Batched callers
(``(K, 1)`` lane columns and the floor shader's pixels) always use the
array kernels.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

_EPS = 1e-12

#: Side of a one-point query memo cell (metres).
_CELL = 1.0
#: How far the memo's grid reaches past the geometry's bounding box
#: (metres): wide enough for a centerline to cover its widest corridor.
_CELL_MARGIN = 8.0


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


class _CellMemo:
    """Lazily filled per-cell candidate rows and clearance floors of one
    soup or polyline.

    ``owner`` provides ``_distances(cx, cy)``, the ``(S,)`` array of its
    kernel's distances from one point, and ``_row(j)``, segment ``j``'s
    plain-float terms.  A cell keeps the rows of its candidates (the cell
    rule in the module docstring); a row is built when its segment first
    becomes a candidate.  A cell's clearance floor (the floor rule) is kept
    apart from its rows, so a query the floor answers builds no row.  The
    stores fill with ``setdefault``, so simulators and threads sharing one
    world may race on a cell and all read the same rows and floor.
    """

    __slots__ = (
        "_x0", "_y0", "_nx", "_ny", "_bound", "_floor_margin", "_cells", "_floors", "_rows",
    )

    def __init__(self, xs: np.ndarray, ys: np.ndarray):
        self._x0 = float(xs.min()) - _CELL_MARGIN
        self._y0 = float(ys.min()) - _CELL_MARGIN
        self._nx = math.ceil((float(xs.max()) + _CELL_MARGIN - self._x0) / _CELL)
        self._ny = math.ceil((float(ys.max()) + _CELL_MARGIN - self._y0) / _CELL)
        reach = max(
            abs(self._x0), abs(self._y0),
            abs(self._x0 + self._nx * _CELL), abs(self._y0 + self._ny * _CELL),
        )
        slack = 4.0 * math.sqrt(_EPS) + 1e-9 * (1.0 + reach)
        self._bound = math.hypot(_CELL, _CELL) + slack
        self._floor_margin = 0.5 * math.hypot(_CELL, _CELL) + slack
        self._cells: dict[int, tuple] = {}
        self._floors: dict[int, float] = {}
        self._rows: dict[int, tuple] = {}

    def _key(self, px: float, py: float) -> int | None:
        """The point's cell, or ``None`` outside the grid (a non-finite
        coordinate included)."""
        fx = (px - self._x0) / _CELL
        fy = (py - self._y0) / _CELL
        if not (0.0 <= fx < self._nx and 0.0 <= fy < self._ny):
            return None
        return int(fx) * self._ny + int(fy)

    def rows(self, px: float, py: float, owner) -> tuple | None:
        """Candidate rows for the point, or ``None`` where the full scan
        must answer (outside the grid, or a non-finite coordinate)."""
        key = self._key(px, py)
        if key is None:
            return None
        cell = self._cells.get(key)
        if cell is None:
            cell = self._cells.setdefault(key, self._fill(key, owner))
        return cell

    def floor(self, px: float, py: float, owner) -> float:
        """The clearance floor of the point's cell: no point of the cell
        has a computed distance below it.  ``-inf`` outside the grid."""
        key = self._key(px, py)
        if key is None:
            return -math.inf
        floor = self._floors.get(key)
        if floor is None:
            floor = self._floors.setdefault(key, self._fill_floor(key, owner))
        return floor

    def _centre_distances(self, key: int, owner) -> np.ndarray:
        ix, iy = divmod(key, self._ny)
        return owner._distances(
            self._x0 + (ix + 0.5) * _CELL, self._y0 + (iy + 0.5) * _CELL
        )

    def _fill(self, key: int, owner) -> tuple:
        dist = self._centre_distances(key, owner)
        rows = self._rows
        return tuple(
            rows.get(j) or rows.setdefault(j, owner._row(j))
            for j in np.flatnonzero(dist <= dist.min() + self._bound).tolist()
        )

    def _fill_floor(self, key: int, owner) -> float:
        return float(self._centre_distances(key, owner).min()) - self._floor_margin


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
        self._memo = _CellMemo(
            np.concatenate([self._ax, self._ax + self._dx]),
            np.concatenate([self._ay, self._ay + self._dy]),
        )

    def __len__(self) -> int:
        return len(self.segments)

    def _squared(
        self, px: float | np.ndarray, py: float | np.ndarray
    ) -> np.ndarray:
        """Squared distance from each point to each segment."""
        rx = px - self._ax
        ry = py - self._ay
        t = np.clip((rx * self._dx + ry * self._dy) / self._denom, 0.0, 1.0)
        cx = rx - t * self._dx
        cy = ry - t * self._dy
        return cx * cx + cy * cy

    def nearest_distance(
        self, px: float | np.ndarray, py: float | np.ndarray
    ) -> float | np.ndarray:
        """Distance from each point to its nearest segment.

        Plain-float ``px, py`` give one distance; ``(P, 1)`` columns give
        ``(P,)`` distances, each the float the one-point call returns.
        """
        return np.sqrt(self._squared(px, py).min(axis=-1))

    def _distances(self, px: float, py: float) -> np.ndarray:
        return np.sqrt(self._squared(px, py))

    def _row(self, j: int) -> tuple[float, float, float, float, float]:
        return (
            float(self._ax[j]), float(self._ay[j]),
            float(self._dx[j]), float(self._dy[j]), float(self._denom[j]),
        )

    def clearance_floor(self, point: np.ndarray) -> float:
        """A lower bound on :meth:`min_distance` of ``point``: its memo
        cell's clearance floor (the floor rule), ``-inf`` off the grid.

        ``floor > r`` proves ``not (min_distance(point) <= r)``; otherwise
        only :meth:`min_distance` can answer."""
        return self._memo.floor(float(point[0]), float(point[1]), self)

    def min_distance(self, point: np.ndarray) -> float:
        """Distance from ``point`` to the nearest segment in the soup:
        :meth:`nearest_distance`'s bits, over the point's memo cell."""
        px, py = float(point[0]), float(point[1])
        rows = self._memo.rows(px, py, self)
        if rows is None:
            return float(self.nearest_distance(px, py))
        best = math.inf
        for ax, ay, dx, dy, denom in rows:
            rx = px - ax
            ry = py - ay
            t = (rx * dx + ry * dy) / denom
            t = t if t > 0.0 else 0.0
            t = t if t < 1.0 else 1.0
            cx = rx - t * dx
            cy = ry - t * dy
            q = cx * cx + cy * cy
            if q < best:
                best = q
        return math.sqrt(best)

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
        self._memo = _CellMemo(points[:, 0], points[:, 1])

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
        t, dx, dy = self._residuals(px, py, segments)
        i = (dx * dx + dy * dy).argmin(axis=-1)
        pick = i if dx.ndim == 1 else (np.arange(dx.shape[0]), i)
        return (i if segments is None else segments[pick]), t[pick], dx[pick], dy[pick]

    def _residuals(
        self,
        px: float | np.ndarray,
        py: float | np.ndarray,
        segments: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Clamped ``t`` and the ``point - closest`` residual per segment."""
        sx, sy, ux, uy, lengths = self.sx, self.sy, self.ux, self.uy, self.lengths
        if segments is not None:
            sx, sy, ux, uy = sx[segments], sy[segments], ux[segments], uy[segments]
            lengths = lengths[segments]
        t = np.clip((px - sx) * ux + (py - sy) * uy, 0.0, lengths)
        # ``closest`` first, then ``point - closest``: every recorded
        # course coordinate depends on this order.
        dx = px - (sx + t * ux)
        dy = py - (sy + t * uy)
        return t, dx, dy

    def _distances(self, px: float, py: float) -> np.ndarray:
        _, dx, dy = self._residuals(px, py)
        return np.sqrt(dx * dx + dy * dy)

    def _row(self, j: int) -> tuple[int, float, float, float, float, float]:
        return (
            j, float(self.sx[j]), float(self.sy[j]),
            float(self.ux[j]), float(self.uy[j]), float(self.lengths[j]),
        )

    def _nearest_one(self, px: float, py: float):
        """:meth:`nearest_segment` of one point, over its memo cell."""
        rows = self._memo.rows(px, py, self)
        if rows is None:
            return self.nearest_segment(px, py)
        best = math.inf
        for j, sx, sy, ux, uy, length in rows:
            u = (px - sx) * ux + (py - sy) * uy
            u = u if u > 0.0 else 0.0
            u = u if u < length else length
            dx = px - (sx + u * ux)
            dy = py - (sy + u * uy)
            q = dx * dx + dy * dy
            if q < best:
                best, nearest = q, (j, u, dx, dy)
        return nearest

    def project(self, point: np.ndarray) -> tuple[float, float]:
        """Project a point onto the polyline.

        Returns ``(s, d)``: arclength of the closest centerline point and
        the signed lateral offset (positive to the left of travel).
        """
        i, t, dx, dy = self._nearest_one(float(point[0]), float(point[1]))
        # ``d`` is a 2-vector BLAS dot; an expanded sum rounds differently
        # and every recorded mission depends on this rounding.
        return float(self._cum_list[i] + t), float(np.array([dx, dy]) @ self.normals[i])

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
