"""Bit-for-bit pins of every world query's float64 output.

The environment answers three geometric questions: where a point lies
along the course (projection), how far it is from a wall, and what a
ray hits.  Each query is served to the serial simulator, the camera,
the MPC rollout and the batch engine, and every consumer must see the
same bits.  This module pins the sha256 of each consumer-facing entry
point's output on three worlds (the straight tunnel, the curved
s-shape and a zigzag with two obstacles) over points that reach past
both course ends and past the walls, plus one point beside each
interior centerline vertex, where nearest-segment ties live.

It also asserts the equalities that make the batched forms the same
computation as the one-point forms: ``min_distance`` equals
``wall_distances`` and a one-origin ``cast_rays`` equals the lane cast.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest

from repro.batch import kernels
from repro.env import camera
from repro.env.worlds import World, s_shape_world, tunnel_world
from repro.scenario.generate import world_from_scenario
from repro.scenario.schema import GeometrySpec, ObstacleSpec, Scenario

#: A zigzag course with a box and a diamond obstacle.
ZIGZAG = Scenario(
    name="zigzag-obstacles",
    geometry=GeometrySpec(
        family="zigzag", length=40.0, width=6.4, amplitude=2.0, segments=6
    ),
    obstacles=(
        ObstacleSpec(s=12.0, d=1.8, radius=0.5, shape="box"),
        ObstacleSpec(s=20.0, d=-1.8, radius=0.5, shape="diamond"),
    ),
)

#: Rays per fan, fan origins per world, and the fan's range.
FAN_RAYS = 37
FAN_ORIGINS = 16
FAN_RANGE = 100.0


@pytest.fixture(scope="module")
def worlds() -> dict[str, World]:
    return {
        "tunnel": tunnel_world(),
        "s-shape": s_shape_world(),
        "zigzag-obstacles": world_from_scenario(ZIGZAG),
    }


def _course_point(world: World, s: float, d: float) -> np.ndarray:
    """World point at course coordinates ``(s, d)``; ``s`` outside the
    course extends the end segment's tangent."""
    line = world.centerline
    on = min(max(s, 0.0), line.length)
    return (
        line.point_at_arclength(on)
        + (s - on) * line.tangent_at_arclength(on)
        + d * line.normal_at_arclength(on)
    )


def query_points(world: World) -> np.ndarray:
    """64 seeded points up to 4 m past each course end (the first two
    3 m past each) and half the corridor width past each wall, then one
    point 0.5 m beside each interior centerline vertex, alternating
    sides."""
    rng = np.random.default_rng(19)
    length = world.centerline.length
    reach = 1.5 * world.half_width
    s = np.concatenate([[-3.0, length + 3.0], rng.uniform(-4.0, length + 4.0, 62)])
    points = [_course_point(world, si, di) for si, di in zip(s, rng.uniform(-reach, reach, 64))]
    vertices = world.centerline.points
    for i in range(1, len(vertices) - 1):
        tx, ty = vertices[i + 1] - vertices[i]
        normal = np.array([-ty, tx]) / math.hypot(tx, ty)
        points.append(vertices[i] + (0.5 if i % 2 else -0.5) * normal)
    return np.array(points)


def _fan(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Origins and ``(FAN_ORIGINS, FAN_RAYS)`` world-frame angles: a
    full-circle fan (walls parallel to a ray included) from evenly
    spaced points of the set."""
    origins = points[:: points.shape[0] // FAN_ORIGINS][:FAN_ORIGINS]
    angles = np.linspace(-math.pi, math.pi, FAN_RAYS)
    return origins, np.tile(angles, (FAN_ORIGINS, 1))


def _digest(*arrays: np.ndarray) -> str:
    h = hashlib.sha256()
    for array in arrays:
        h.update(np.ascontiguousarray(array).tobytes())
    return h.hexdigest()[:32]


def _outputs(world: World) -> dict[str, tuple[np.ndarray, ...]]:
    points = query_points(world)
    px, py = points[:, 0], points[:, 1]
    origins, angles = _fan(points)
    s, idx, diff = kernels.project_lanes(points, world)
    return {
        "Polyline.project": (np.array([world.centerline.project(p) for p in points]),),
        "SegmentSoup.min_distance": (
            np.array([world.walls.min_distance(p) for p in points]),
        ),
        "SegmentSoup.cast_rays": (
            np.array(
                [world.walls.cast_rays(o, a, FAN_RANGE) for o, a in zip(origins, angles)]
            ),
        ),
        "kernels.project_lanes": (s, idx.astype(np.int64), diff),
        "kernels.wall_distances": (kernels.wall_distances(px, py, world),),
        "camera.cast_rays_lanes": (
            camera.cast_rays_lanes(origins[:, 0], origins[:, 1], angles, world, FAN_RANGE),
        ),
        "camera.floor_offsets": (camera.floor_offsets(world, px, py),),
        "World.batch_course_frames": world.batch_course_frames(points),
    }


#: sha256 (first 32 hex digits) of each query's float64 output bytes
#: (``project_lanes``' segment index as int64), per world, recorded before
#: the queries were merged into the geometry kernels.
PINS: dict[str, dict[str, str]] = {
    "tunnel": {
        "Polyline.project": "544906c4b934e3b6935cc60b469d1a00",
        "SegmentSoup.min_distance": "fd975b69b759a416daa59ff0576b3dbe",
        "SegmentSoup.cast_rays": "545ce3bfb7a311666b82986dd878df60",
        "kernels.project_lanes": "ed0ad224d76c7f407b396c8512d3f7c6",
        "kernels.wall_distances": "fd975b69b759a416daa59ff0576b3dbe",
        "camera.cast_rays_lanes": "545ce3bfb7a311666b82986dd878df60",
        "camera.floor_offsets": "bc50688994f138717321280dd6effc37",
        "World.batch_course_frames": "be329a911b37e4986a6688a4d5980ce8",
    },
    "s-shape": {
        "Polyline.project": "51f8aef8f4f76d0d82dbb6f55098999a",
        "SegmentSoup.min_distance": "9445bc58f83bdc9f28bd9f5f75a38289",
        "SegmentSoup.cast_rays": "b0ceb3ca2cd3d3914a3f77c68b11773e",
        "kernels.project_lanes": "17b049293e433f9dc8c4f2f40ca24f5e",
        "kernels.wall_distances": "9445bc58f83bdc9f28bd9f5f75a38289",
        "camera.cast_rays_lanes": "b0ceb3ca2cd3d3914a3f77c68b11773e",
        "camera.floor_offsets": "d6b80c4f8d249eab7af362443945ef6a",
        "World.batch_course_frames": "d55002ee876279c76eb6fc16567cd79f",
    },
    "zigzag-obstacles": {
        "Polyline.project": "79a5fa2f9b2c428f269b56d3160a1ec5",
        "SegmentSoup.min_distance": "ece513660862bd235dc52427b02c0b91",
        "SegmentSoup.cast_rays": "56fc1eba2996e4af873d75c2983b66b4",
        "kernels.project_lanes": "eb095baffc7520b4e36d2187735caf34",
        "kernels.wall_distances": "ece513660862bd235dc52427b02c0b91",
        "camera.cast_rays_lanes": "56fc1eba2996e4af873d75c2983b66b4",
        "camera.floor_offsets": "14cf259f8b22f7f61f07c94ad4c5a561",
        "World.batch_course_frames": "a60ee6e96c650d5ee6fb3c5c9cbdb2d2",
    },
}


@pytest.mark.parametrize("world_name", ["tunnel", "s-shape", "zigzag-obstacles"])
def test_query_outputs_match_pins(world_name, worlds):
    outputs = _outputs(worlds[world_name])
    got = {name: _digest(*arrays) for name, arrays in outputs.items()}
    assert got == PINS[world_name]


@pytest.mark.parametrize("world_name", ["tunnel", "s-shape", "zigzag-obstacles"])
def test_batched_forms_equal_one_point_forms(world_name, worlds):
    world = worlds[world_name]
    points = query_points(world)
    one = np.array([world.walls.min_distance(p) for p in points])
    lanes = kernels.wall_distances(points[:, 0], points[:, 1], world)
    assert one.tobytes() == lanes.tobytes()

    origins, angles = _fan(points)
    one = np.array(
        [world.walls.cast_rays(o, a, FAN_RANGE) for o, a in zip(origins, angles)]
    )
    lanes = camera.cast_rays_lanes(origins[:, 0], origins[:, 1], angles, world, FAN_RANGE)
    assert one.tobytes() == lanes.tobytes()

    s, _, _ = kernels.project_lanes(points, world)
    serial = np.array([world.centerline.project(p) for p in points])
    assert s.tobytes() == serial[:, 0].tobytes()


def test_point_set_reaches_past_ends_and_walls(worlds):
    for world in worlds.values():
        points = query_points(world)
        course = np.array([world.centerline.project(p) for p in points])
        assert course[:, 0].min() == 0.0
        assert course[:, 0].max() == world.centerline.length
        assert np.abs(course[:, 1]).max() > world.half_width
        assert len(points) == 64 + len(world.centerline.points) - 2
