"""Procedural corridor worlds (the paper's ``tunnel`` and ``s-shape`` maps).

Section 4.2.3 of the paper describes two Unreal Engine environments: a
straight tunnel, 50 m long and 3.2 m wide, and an "S"-shaped course of 80 m.
We rebuild them as corridor worlds defined by a centerline polyline plus a
width profile; the walls are lateral offsets of the centerline.  The world
answers the queries the rest of the stack needs:

* collision tests for the physics engine,
* ray casts for the depth sensor and the camera rasterizer,
* (s, d) course coordinates — arclength progress and signed lateral offset —
  for trajectory logging and the behavioural (calibrated) classifier,
* goal tests for mission completion.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from repro.env.courses import sine_centerline, straight_centerline
from repro.env.geometry import Polyline, Pose2, Segment2, SegmentSoup, angle_difference
from repro.errors import SimulationError


@dataclass
class World:
    """A corridor world: centerline, walls, and course metadata.

    Parameters
    ----------
    name:
        Human-readable map name (``"tunnel"`` / ``"s-shape"``).
    centerline:
        The course centerline, starting at the spawn point.
    half_width:
        Lateral distance from the centerline to each wall.
    goal_arclength:
        Arclength at which the mission counts as complete.
    obstacles:
        Extra solid segments inside the corridor (scenario-compiled
        worlds place diamond/box obstacles here).  They join the wall
        soup *after* the walls and end caps, so a world with no
        obstacles builds a segment list identical to the pre-obstacle
        code — every legacy golden trace is unaffected.
    """

    name: str
    centerline: Polyline
    half_width: float
    goal_arclength: float
    obstacles: tuple[Segment2, ...] = ()
    walls: SegmentSoup = field(init=False)
    left_wall: Polyline = field(init=False)
    right_wall: Polyline = field(init=False)

    def __post_init__(self) -> None:
        if self.half_width <= 0:
            raise SimulationError(f"half_width must be positive: {self.half_width}")
        if not (0 < self.goal_arclength <= self.centerline.length):
            raise SimulationError(
                "goal_arclength must lie within the centerline "
                f"(got {self.goal_arclength}, length {self.centerline.length})"
            )
        self.left_wall = self.centerline.offset(self.half_width)
        self.right_wall = self.centerline.offset(-self.half_width)
        segments = self.left_wall.to_segments() + self.right_wall.to_segments()
        segments.extend(self._end_caps())
        segments.extend(self.obstacles)
        self.walls = SegmentSoup(segments)

    def _end_caps(self):
        """Close the corridor at both ends so rays cannot escape."""
        caps = []
        for left, right in (
            (self.left_wall.points[0], self.right_wall.points[0]),
            (self.left_wall.points[-1], self.right_wall.points[-1]),
        ):
            caps.append(
                Segment2(float(left[0]), float(left[1]), float(right[0]), float(right[1]))
            )
        return caps

    # ------------------------------------------------------------------
    # Course coordinates
    # ------------------------------------------------------------------
    def course_coordinates(self, position: np.ndarray) -> tuple[float, float]:
        """Return ``(s, d)``: arclength progress and signed lateral offset."""
        return self.centerline.project(position)

    def heading_error(self, pose: Pose2) -> float:
        """Signed angle between the pose heading and the course tangent."""
        s, _ = self.centerline.project(pose.position)
        return self.heading_error_at(s, pose.yaw)

    def heading_error_at(self, s: float, yaw: float) -> float:
        """Heading error of ``yaw`` against the course tangent at arclength
        ``s`` — :meth:`heading_error` for a pose already projected."""
        tangent = self.centerline.tangent_at_arclength(s)
        return angle_difference(yaw, math.atan2(tangent[1], tangent[0]))

    def spawn_pose(
        self,
        initial_angle: float = 0.0,
        lateral_offset: float = 0.0,
        forward_offset: float = 0.5,
    ) -> Pose2:
        """Starting pose: near the course origin, offset laterally, rotated
        by ``initial_angle`` (radians) relative to the course tangent.

        ``forward_offset`` sets the distance from the corridor's start cap
        (larger vehicles need more clearance).  The paper's Figure 10
        sweeps initial angles of -20, 0 and +20 degrees.
        """
        if abs(lateral_offset) >= self.half_width:
            raise SimulationError("spawn lateral_offset places the drone in a wall")
        if forward_offset <= 0:
            raise SimulationError("forward_offset must be positive")
        start = self.centerline.point_at_arclength(0.0)
        tangent = self.centerline.tangent_at_arclength(0.0)
        normal = self.centerline.normal_at_arclength(0.0)
        pos = start + lateral_offset * normal + forward_offset * tangent
        course_yaw = math.atan2(tangent[1], tangent[0])
        return Pose2(float(pos[0]), float(pos[1]), course_yaw + initial_angle)

    # ------------------------------------------------------------------
    # Physical queries
    # ------------------------------------------------------------------
    def wall_clearance(self, position: np.ndarray) -> float:
        """Distance from ``position`` to the nearest wall."""
        return self.walls.min_distance(position)

    def in_collision(self, position: np.ndarray, radius: float) -> bool:
        """True if a disc of ``radius`` at ``position`` touches a wall, or if
        the position has left the corridor entirely."""
        return self.course_if_clear(position, radius) is None

    def course_if_clear(
        self, position: np.ndarray | tuple[float, float], radius: float
    ) -> tuple[float, float] | None:
        """:meth:`in_collision` that keeps its projection: ``(s, d)`` of a
        collision-free ``position``, ``None`` for a colliding one.

        ``position`` may be a plain ``(x, y)`` tuple, as the per-frame
        dynamics pass it: the queries read its two coordinates as floats.

        The wall test is ``wall_clearance(position) <= radius``.  Where the
        position's clearance floor exceeds ``radius`` that test is proved
        false and skipped; only a position near a wall, off the walls'
        grid or non-finite runs the exact distance."""
        walls = self.walls
        if not walls.clearance_floor(position) > radius and walls.min_distance(position) <= radius:
            return None
        s, d = self.course_coordinates(position)
        return None if abs(d) >= self.half_width else (s, d)

    def depth_along(self, pose: Pose2, relative_angle: float = 0.0, max_range: float = 100.0) -> float:
        """Ray-cast distance to the nearest wall along the pose heading.

        This is the forward-facing depth reading the paper's dynamic runtime
        (Section 5.3) uses to derive deadlines.
        """
        return self.walls.cast_ray(
            pose.position, pose.yaw + relative_angle, max_range=max_range
        )

    def panorama(self, pose: Pose2, angles: np.ndarray, max_range: float = 100.0) -> np.ndarray:
        """Vectorized multi-ray cast (body-frame ``angles``) for the lidar."""
        return self.walls.cast_rays(pose.position, pose.yaw + np.asarray(angles), max_range)

    def reached_goal(self, position: np.ndarray) -> bool:
        s, _ = self.course_coordinates(position)
        return s >= self.goal_arclength

    def batch_course_frames(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized course frame for many points at once.

        Returns ``(offsets, course_yaws)``: signed lateral offset and the
        course-tangent heading at the closest centerline point, for an
        ``(N, 2)`` array of world points, for the MPC rollout, which would
        otherwise call :meth:`course_coordinates` in a Python loop.  The
        offsets are :meth:`Polyline.lateral_offsets`, which round
        differently from :meth:`course_coordinates`' ``d``.
        """
        points = np.asarray(points, dtype=float)
        line = self.centerline
        idx, _, dx, dy = line.nearest_segment(points[:, :1], points[:, 1:])
        return line.lateral_offsets(idx, dx, dy), np.arctan2(line.uy[idx], line.ux[idx])


def tunnel_world(length: float = 50.0, width: float = 3.2) -> World:
    """The paper's ``tunnel`` map: a straight corridor, 50 m x 3.2 m.

    Walls sit at y = +/-1.6 m, matching Figure 10's gray dashed boundaries.
    """
    return World(
        name="tunnel",
        centerline=Polyline(straight_centerline(length)),
        half_width=width / 2.0,
        goal_arclength=length - 1.0,
    )


def s_shape_world(
    length: float = 80.0,
    width: float = 6.4,
    amplitude: float = 10.0,
    resolution: int = 161,
) -> World:
    """The paper's ``s-shape`` map: an 80 m "S"-shaped course.

    The paper describes it as wider than the tunnel, with more room for
    error but requiring constant correction.  We realize the "S" as one
    full sine period over the course length; the mission completes at
    x = 80 m as in Figure 11.
    """
    centerline = Polyline(sine_centerline(length, amplitude, resolution))
    return World(
        name="s-shape",
        centerline=centerline,
        half_width=width / 2.0,
        goal_arclength=centerline.length - 1.0,
    )


def _scenario_world(**params) -> World:
    """Dispatch ``make_world("scenario", spec=...)`` to the compiler.

    Imported lazily so the env layer never depends on ``repro.scenario``
    at import time (the scenario package imports this module).
    """
    from repro.scenario.generate import world_from_spec

    return world_from_spec(**params)


_BUILDERS = {
    "tunnel": tunnel_world,
    "s-shape": s_shape_world,
    "s_shape": s_shape_world,
    "scenario": _scenario_world,
}


def make_world(name: str, **params) -> World:
    """Build a world by name (``"tunnel"``, ``"s-shape"``, ``"scenario"``).

    Keyword parameters are forwarded to the builder (e.g.
    ``make_world("s-shape", amplitude=8.0)``); the ``"scenario"`` builder
    takes a ``spec`` dict (the geometry/obstacles slice of a
    ``rose-scenario/1`` document) and compiles it via
    :mod:`repro.scenario.generate`.
    """
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise SimulationError(
            f"unknown world {name!r}; available: {sorted(set(_BUILDERS))}"
        ) from None
    return builder(**params)


_WORLD_CACHE: dict[tuple, World] = {}


def cached_world(name: str, **params) -> World:
    """Memoized :func:`make_world`: one shared instance per parameter set.

    Worlds are never mutated after construction (walls, centerline and
    course metadata are all fixed in ``__post_init__``, and their
    per-segment arrays are read-only), so every simulator in a process
    can share one instance.  The one exception is the geometry's
    one-point query memo (:class:`repro.env.geometry._CellMemo`), which
    fills per-cell candidate lists and clearance floors as points are
    queried; it never changes an answer, and its ``setdefault`` fill is
    safe for threads sharing the world.  Building an s-shape
    world costs milliseconds of wall geometry; a sweep re-running hundreds
    of missions on the same map pays it once.  Unhashable parameter
    values (scenario ``spec`` dicts) key on their canonical JSON instead;
    parameters that survive neither hashing nor JSON fall back to an
    uncached build.
    """
    key: tuple[str, object]
    try:
        key = (name, tuple(sorted(params.items())))
        hash(key)
    except TypeError:
        try:
            key = (name, json.dumps(params, sort_keys=True, separators=(",", ":")))
        except (TypeError, ValueError):
            return make_world(name, **params)
    world = _WORLD_CACHE.get(key)
    if world is None:
        world = _WORLD_CACHE.setdefault(key, make_world(name, **params))
    return world
