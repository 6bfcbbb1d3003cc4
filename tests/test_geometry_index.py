"""The one-point query memo answers with the full scan's bits.

:meth:`SegmentSoup.min_distance` and :meth:`Polyline.project` scan only
the candidate segments of the query point's memo cell.  These tests
compare them with the array kernels over every segment
(:meth:`SegmentSoup.nearest_distance`, :meth:`Polyline.nearest_segment`)
by ``float.hex``, segment index included, on the tunnel, the s-shape and
a compiled zigzag with a box and a diamond obstacle: at seeded points, on
cell corners and edges, at the centerline and wall vertices (where
nearest-segment ties live), at signed zeros, beyond the memo's grid and
at non-finite coordinates.  The collision test's clearance floor is
checked against the exact distance it stands in for: seeded points across
the grid and within a cell diagonal of every wall, at the quadrotor's,
the car's and a zero radius.  A serial mission is spied on to show that
the memo, not the full scan, answers it, how its collision tests split
between the floor and the exact distance, and that each visited cell is
filled once.
"""

from __future__ import annotations

import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import CoSimConfig
from repro.core.cosim import run_mission
from repro.env import geometry, worlds
from repro.env.geometry import Polyline, SegmentSoup, _CellMemo
from repro.env.worlds import World, make_world, s_shape_world, tunnel_world
from repro.scenario.generate import compile_config
from tests.test_geometry_pins import ZIGZAG

WORLD_NAMES = ["tunnel", "s-shape", "zigzag-obstacles"]


def _build(name: str) -> World:
    """A freshly built world, never the process-wide cached one: a check
    run under a mutant memo sees that memo, and the mutant memo cannot
    leak into the cache."""
    if name == "tunnel":
        return tunnel_world()
    if name == "s-shape":
        return s_shape_world()
    config = compile_config(ZIGZAG)
    return make_world(config.world, **config.world_params)


@pytest.fixture(scope="module")
def built() -> dict[str, World]:
    return {name: _build(name) for name in WORLD_NAMES}


def _hex(*values) -> tuple[str, ...]:
    return tuple(float(v).hex() for v in values)


def full_project(line: Polyline, px: float, py: float) -> tuple:
    """Segment index, ``t``, residual and ``(s, d)`` of the full scan, as
    ``Polyline.project`` computed them before the memo."""
    i, t, dx, dy = line.nearest_segment(px, py)
    s = line.cum[i] + t
    d = np.array([dx, dy]) @ line.normals[i]
    return (int(i),) + _hex(t, dx, dy, s, d)


def memo_project(line: Polyline, px: float, py: float) -> tuple:
    i, t, dx, dy = line._nearest_one(px, py)
    s, d = line.project(np.array([px, py]))
    return (int(i),) + _hex(t, dx, dy, s, d)


def assert_matches_full_scan(world: World, points) -> None:
    for px, py in points:
        px, py = float(px), float(py)
        for line in (world.centerline, world.left_wall, world.right_wall):
            assert memo_project(line, px, py) == full_project(line, px, py), (px, py)
        assert _hex(world.walls.min_distance(np.array([px, py]))) == _hex(
            world.walls.nearest_distance(px, py)
        ), (px, py)


def _grid(memo: _CellMemo) -> tuple[float, float, float, float]:
    """The memo grid's covered box: ``(x0, y0, x1, y1)``."""
    return (
        memo._x0,
        memo._y0,
        memo._x0 + memo._nx * geometry._CELL,
        memo._y0 + memo._ny * geometry._CELL,
    )


def _key(memo: _CellMemo, px: float, py: float) -> int:
    return int((px - memo._x0) / geometry._CELL) * memo._ny + int(
        (py - memo._y0) / geometry._CELL
    )


def seeded_points(world: World, count: int = 400) -> np.ndarray:
    """Points across the whole grid of the walls' memo (which covers the
    centerline's inside the corridor), half of them near the course."""
    rng = np.random.default_rng(22)
    x0, y0, x1, y1 = _grid(world.walls._memo)
    box = np.column_stack(
        [rng.uniform(x0, x1, count // 2), rng.uniform(y0, y1, count // 2)]
    )
    line = world.centerline
    near = [
        line.point_at_arclength(s) + d * line.normal_at_arclength(s)
        for s, d in zip(
            rng.uniform(0.0, line.length, count // 2),
            rng.uniform(-1.2, 1.2, count // 2) * world.half_width,
        )
    ]
    return np.vstack([box, np.array(near)])


def corner_and_edge_points(world: World) -> list[tuple[float, float]]:
    """Cell corners and edge midpoints along the course, and the floats
    just either side of each corner."""
    points = []
    line = world.centerline
    for memo in (world.walls._memo, line._memo):
        for s in np.linspace(0.0, line.length, 40):
            cx, cy = line.point_at_arclength(s)
            ix = math.floor((cx - memo._x0) / geometry._CELL)
            iy = math.floor((cy - memo._y0) / geometry._CELL)
            x = memo._x0 + ix * geometry._CELL
            y = memo._y0 + iy * geometry._CELL
            points += [
                (x, y),
                (x + 0.5 * geometry._CELL, y),
                (x, y + 0.5 * geometry._CELL),
                (math.nextafter(x, -math.inf), math.nextafter(y, -math.inf)),
                (math.nextafter(x, math.inf), math.nextafter(y, math.inf)),
            ]
    return points


def vertex_points(world: World) -> list[tuple[float, float]]:
    points = [tuple(p) for p in world.centerline.points]
    points += [tuple(p) for p in world.left_wall.points]
    points += [tuple(p) for p in world.right_wall.points]
    points += [(s.ax, s.ay) for s in world.walls.segments]
    points += [(s.bx, s.by) for s in world.walls.segments]
    return points


def signed_zero_points(world: World) -> list[tuple[float, float]]:
    mid = world.centerline.point_at_arclength(world.centerline.length / 2.0)
    points = []
    for zx in (0.0, -0.0):
        for zy in (0.0, -0.0):
            points.append((zx, zy))
        for y in (-1.0, -0.5, 0.5, float(mid[1])):
            points += [(zx, y), (float(mid[0]), zx if y > 0 else -zx)]
    return points


def beyond_grid_points(world: World) -> list[tuple[float, float]]:
    x0, y0, x1, y1 = _grid(world.walls._memo)
    return [
        (x0 - 1.0, y0), (x1 + 1.0, 0.0), (0.0, y1 + 1.0), (0.0, y0 - 1e-9),
        (x1, y0), (x0 - 500.0, y1 + 500.0), (1e6, -1e6),
    ]


#: Collision radii: the quadrotor's, the car's, and zero.
RADII = (0.3, 0.8, 0.0)


def near_wall_points(world: World, per_segment: int = 4) -> list[tuple[float, float]]:
    """Seeded points within one cell diagonal of each wall segment, on
    either side of it."""
    rng = np.random.default_rng(29)
    reach = math.hypot(geometry._CELL, geometry._CELL)
    points = []
    for seg in world.walls.segments:
        dx, dy = seg.bx - seg.ax, seg.by - seg.ay
        length = math.hypot(dx, dy)
        nx, ny = (-dy / length, dx / length) if length > 0.0 else (0.0, 1.0)
        for t, off in zip(
            rng.uniform(0.0, 1.0, per_segment), rng.uniform(-reach, reach, per_segment)
        ):
            points.append((seg.ax + t * dx + off * nx, seg.ay + t * dy + off * ny))
    return points


def floor_check_points(world: World) -> list[tuple[float, float]]:
    """Grid-wide and near-wall seeded points, plus a NaN and an off-grid
    point."""
    x0, y0, x1, y1 = _grid(world.walls._memo)
    points = [(float(px), float(py)) for px, py in seeded_points(world)]
    points += near_wall_points(world)
    return points + [(math.nan, 0.5 * (y0 + y1)), (x1 + 1.0, 0.5 * (y0 + y1))]


def assert_floor_answers_exactly(world: World, points, radius: float) -> int:
    """The clearance floor never exceeds the exact distance, and the
    floor-backed collision test ``World.course_if_clear`` answers
    ``not (min_distance(p) <= radius)`` with the full scan's ``(s, d)``.
    Returns how many points the floor decided."""
    walls, line = world.walls, world.centerline
    decided = 0
    for px, py in points:
        p = np.array([px, py])
        floor = walls.clearance_floor(p)
        exact = walls.min_distance(p)
        assert not floor > exact, (px, py, floor, exact)
        decided += floor > radius
        expected = None
        if not exact <= radius:
            i, t, dx, dy = line.nearest_segment(px, py)
            d = float(np.array([dx, dy]) @ line.normals[i])
            if not abs(d) >= world.half_width:
                expected = _hex(line.cum[i] + t, d)
        got = world.course_if_clear(p, radius)
        assert (got if got is None else _hex(*got)) == expected, (px, py, radius)
    return decided


@pytest.mark.parametrize("name", WORLD_NAMES)
class TestMatchesFullScan:
    def test_seeded_points(self, name, built):
        assert_matches_full_scan(built[name], seeded_points(built[name]))

    def test_cell_corners_and_edges(self, name, built):
        assert_matches_full_scan(built[name], corner_and_edge_points(built[name]))

    def test_vertices_where_ties_occur(self, name, built):
        world = built[name]
        points = vertex_points(world)
        assert_matches_full_scan(world, points)
        # Where two or more segments tie for nearest, the lowest index wins.
        ties = 0
        for line in (world.centerline, world.left_wall, world.right_wall):
            for px, py in points:
                _, dx, dy = line._residuals(px, py)
                q = dx * dx + dy * dy
                tied = np.flatnonzero(q == q.min())
                if len(tied) > 1:
                    assert line._nearest_one(px, py)[0] == tied[0]
                    ties += 1
        assert ties > 10

    def test_signed_zeros(self, name, built):
        assert_matches_full_scan(built[name], signed_zero_points(built[name]))

    def test_beyond_the_grid_takes_the_full_scan(self, name, built):
        world = built[name]
        points = beyond_grid_points(world)
        for px, py in points:
            assert world.walls._memo.rows(px, py, world.walls) is None
        assert_matches_full_scan(world, points)

    def test_non_finite_points_match_the_full_scan(self, name, built):
        world = built[name]
        values = (math.nan, math.inf, -math.inf)
        points = [(v, 1.0) for v in values] + [(1.0, v) for v in values]
        points += [(v, v) for v in values]
        for px, py in points:
            assert world.walls._memo.rows(px, py, world.walls) is None
            assert world.centerline._memo.rows(px, py, world.centerline) is None
        with np.errstate(invalid="ignore"):
            assert_matches_full_scan(world, points)

    def test_course_if_clear_matches_full_scan(self, name, built):
        world = built[name]
        line = world.centerline
        for px, py in seeded_points(world, 200):
            p = np.array([px, py])
            clear = float(world.walls.nearest_distance(px, py)) > 0.3
            i, t, dx, dy = line.nearest_segment(px, py)
            d = float(np.array([dx, dy]) @ line.normals[i])
            expected = (
                (float(line.cum[i] + t), d)
                if clear and abs(d) < world.half_width
                else None
            )
            got = world.course_if_clear(p, 0.3)
            assert (got is None) == (expected is None)
            if got is not None:
                assert _hex(*got) == _hex(*expected)

    @pytest.mark.parametrize("radius", RADII)
    def test_clearance_floor_answers_exactly(self, name, built, radius):
        world = built[name]
        points = floor_check_points(world)
        with np.errstate(invalid="ignore"):
            decided = assert_floor_answers_exactly(world, points, radius)
        # Both answers are exercised: the floor decides some points, and
        # the exact distance the rest.
        assert 0 < decided < len(points)


def test_signed_zero_polyline_keeps_the_clips_positive_zero():
    """A polyline whose vertices carry ``-0.0``: the full scan's clip
    turns a ``-0.0`` ``t`` into ``+0.0``, and so must the memo's."""
    line = Polyline(np.array([[-0.0, 0.0], [-1.0, -0.0], [-2.0, -0.0]]))
    for px in (0.0, -0.0):
        for py in (0.0, -0.0):
            assert memo_project(line, px, py) == full_project(line, px, py)
    # The tunnel's start: t is -0.0 before the clip.
    world = tunnel_world()
    _, t, _, _ = world.centerline._nearest_one(-0.0, -0.5)
    assert math.copysign(1.0, t) == 1.0
    assert memo_project(world.centerline, -0.0, -0.5) == full_project(
        world.centerline, -0.0, -0.5
    )


def test_degenerate_soup_segment():
    """A zero-length and a sub-``sqrt(_EPS)`` segment in a soup divide by
    1.0, as in the full scan."""
    soup = SegmentSoup(
        [
            geometry.Segment2(1.0, 1.0, 1.0, 1.0),
            geometry.Segment2(2.0, 2.0, 2.0 + 4e-7, 2.0),
            geometry.Segment2(-3.0, -1.0, 4.0, -1.0),
        ]
    )
    rng = np.random.default_rng(5)
    for px, py in rng.uniform(-4.0, 5.0, (300, 2)).tolist():
        assert _hex(soup.min_distance((px, py))) == _hex(soup.nearest_distance(px, py))


@pytest.mark.parametrize("name", WORLD_NAMES)
@settings(max_examples=150, deadline=None)
@given(fx=st.floats(0.0, 1.0), fy=st.floats(0.0, 1.0))
def test_property_anywhere_in_the_grid(name, built, fx, fy):
    world = built[name]
    x0, y0, x1, y1 = _grid(world.walls._memo)
    assert_matches_full_scan(world, [(x0 + fx * (x1 - x0), y0 + fy * (y1 - y0))])


def test_rows_are_built_for_candidates_only():
    """A collision test the clearance floor decides builds no wall row.  A
    point near a wall fills one cell per memo it asks, with the rows of
    that cell's candidates only."""
    world = s_shape_world()
    walls, line = world.walls._memo, world.centerline._memo
    centre = world.centerline.points[40]
    assert world.course_if_clear(centre, 0.3) is not None
    assert len(walls._floors) == 1
    assert walls._cells == {} and walls._rows == {}
    # The centre's projection fills one centerline cell.
    assert len(line._cells) == 1
    (cell,) = line._cells.values()
    assert len(line._rows) == len(cell) < len(world.centerline.lengths) / 10

    wall = world.left_wall.points[40]
    inward = (centre - wall) / np.linalg.norm(centre - wall)
    assert world.course_if_clear(wall + 0.1 * inward, 0.3) is None
    assert len(walls._floors) == 2
    assert len(walls._cells) == 1
    (cell,) = walls._cells.values()
    assert len(walls._rows) == len(cell) < len(world.walls) / 10
    # A colliding point is not projected.
    assert len(line._cells) == 1


def test_serial_mission_is_answered_by_the_memo(monkeypatch):
    """A serial s-shape mission with two wall collisions makes no full-scan
    one-point query, decides its collision tests by the clearance floor
    where it can and by the exact distance elsewhere, in a pinned split,
    and fills each cell's floor and rows once.  A collision test that fell
    back to the exact distance would give the same mission more slowly;
    the split pin catches it."""
    monkeypatch.setattr(worlds, "_WORLD_CACHE", {})
    lookups: list[tuple[_CellMemo, float, float, bool]] = []
    floors: list[tuple[_CellMemo, float, float, float]] = []
    exact: list[tuple[float, float]] = []
    fills: list[tuple[_CellMemo, int]] = []
    floor_fills: list[tuple[_CellMemo, int]] = []
    full_scans: list[tuple[float, float]] = []

    rows, fill = _CellMemo.rows, _CellMemo._fill
    floor, fill_floor = _CellMemo.floor, _CellMemo._fill_floor
    min_distance = SegmentSoup.min_distance
    nearest_distance, nearest_segment = SegmentSoup.nearest_distance, Polyline.nearest_segment

    def spy_rows(memo, px, py, owner):
        found = rows(memo, px, py, owner)
        lookups.append((memo, px, py, found is not None))
        return found

    def spy_floor(memo, px, py, owner):
        found = floor(memo, px, py, owner)
        floors.append((memo, px, py, found))
        return found

    def spy_fill(memo, key, owner):
        fills.append((memo, key))
        return fill(memo, key, owner)

    def spy_fill_floor(memo, key, owner):
        floor_fills.append((memo, key))
        return fill_floor(memo, key, owner)

    def spy_min_distance(soup, point):
        exact.append((float(point[0]), float(point[1])))
        return min_distance(soup, point)

    def spy_distance(soup, px, py):
        if np.ndim(px) == 0:
            full_scans.append((px, py))
        return nearest_distance(soup, px, py)

    def spy_segment(line, px, py, segments=None):
        if np.ndim(px) == 0:
            full_scans.append((px, py))
        return nearest_segment(line, px, py, segments)

    monkeypatch.setattr(_CellMemo, "rows", spy_rows)
    monkeypatch.setattr(_CellMemo, "floor", spy_floor)
    monkeypatch.setattr(_CellMemo, "_fill", spy_fill)
    monkeypatch.setattr(_CellMemo, "_fill_floor", spy_fill_floor)
    monkeypatch.setattr(SegmentSoup, "min_distance", spy_min_distance)
    monkeypatch.setattr(SegmentSoup, "nearest_distance", spy_distance)
    monkeypatch.setattr(Polyline, "nearest_segment", spy_segment)

    result = run_mission(
        CoSimConfig(
            world="s-shape", model="resnet6", target_velocity=9.0,
            max_sim_time=8.0, seed=3,
        )
    )
    assert result.collisions == 2
    assert len(lookups) > 1000
    assert all(found for *_, found in lookups)
    assert full_scans == []
    # One floor lookup per collision test: the floor decides most of them,
    # and the exact distance answers the rest, and only those.
    decided = sum(value > 0.3 for *_, value in floors)
    assert (len(floors), decided, len(exact)) == (801, 338, 463)
    assert [(px, py) for _, px, py, value in floors if not value > 0.3] == exact
    assert len(fills) == len(set(fills))
    assert len(floor_fills) == len(set(floor_fills))
    visited = {(memo, _key(memo, px, py)) for memo, px, py, _ in lookups}
    assert set(fills) == visited
    assert set(floor_fills) == {(memo, _key(memo, px, py)) for memo, px, py, _ in floors}


def test_threads_share_one_fill_per_cell():
    """Threads racing on a fresh world all read the rows and clearance
    floors the memo keeps, and every answer is a sequential one's: the
    full scan's distance and projection, and the floor of a second fresh
    world filled by one thread."""
    world = s_shape_world()
    reference = s_shape_world().walls
    points = [(float(px), float(py)) for px, py in seeded_points(world, 200)]
    expected = [
        _hex(world.walls.nearest_distance(px, py), reference.clearance_floor((px, py)))
        + full_project(world.centerline, px, py)
        for px, py in points
    ]
    soup, line = world.walls, world.centerline
    seen: list[list[tuple]] = []

    def worker():
        mine = []
        for px, py in points:
            floor = soup.clearance_floor((px, py))
            answer = _hex(soup.min_distance((px, py)), floor) + memo_project(line, px, py)
            mine.append(
                (answer, floor, soup._memo.rows(px, py, soup), line._memo.rows(px, py, line))
            )
        seen.append(mine)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(seen) == len(threads)
    for mine in seen:
        assert [answer for answer, *_ in mine] == expected
        for (px, py), (_, floor, soup_rows, line_rows) in zip(points, mine):
            key = _key(soup._memo, px, py)
            assert floor is soup._memo._floors[key]
            assert soup_rows is soup._memo._cells[key]
            if line_rows is not None:  # the centerline's grid is smaller
                assert line_rows is line._memo._cells[_key(line._memo, px, py)]
    assert len(line._memo._cells) > 50
    assert len(soup._memo._floors) == len(soup._memo._cells) > 50
