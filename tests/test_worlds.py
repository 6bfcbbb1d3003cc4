"""Tests for the corridor worlds (tunnel / s-shape)."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.env.geometry import Pose2
from repro.env.worlds import World, make_world, s_shape_world, tunnel_world
from repro.errors import SimulationError


class TestTunnelWorld:
    def test_dimensions_match_paper(self, tunnel):
        # 50 m long, 3.2 m wide: walls at y = +/-1.6.
        assert tunnel.half_width == pytest.approx(1.6)
        assert tunnel.centerline.length == pytest.approx(50.0)

    def test_walls_at_plus_minus_half_width(self, tunnel):
        np.testing.assert_allclose(tunnel.left_wall.points[:, 1], 1.6)
        np.testing.assert_allclose(tunnel.right_wall.points[:, 1], -1.6)

    def test_center_is_clear(self, tunnel):
        assert not tunnel.in_collision(np.array([25.0, 0.0]), radius=0.3)

    def test_wall_contact_collides(self, tunnel):
        assert tunnel.in_collision(np.array([25.0, 1.5]), radius=0.3)

    def test_outside_collides(self, tunnel):
        assert tunnel.in_collision(np.array([25.0, 5.0]), radius=0.3)

    def test_clearance_at_center(self, tunnel):
        assert tunnel.wall_clearance(np.array([25.0, 0.0])) == pytest.approx(1.6, abs=0.01)

    def test_depth_straight_ahead(self, tunnel):
        # Looking down the corridor from x=10: the far cap is 40 m away.
        depth = tunnel.depth_along(Pose2(10.0, 0.0, 0.0), max_range=100.0)
        assert depth == pytest.approx(40.0, abs=0.1)

    def test_depth_toward_wall(self, tunnel):
        depth = tunnel.depth_along(Pose2(10.0, 0.0, math.pi / 2), max_range=100.0)
        assert depth == pytest.approx(1.6, abs=0.01)

    def test_goal_near_end(self, tunnel):
        assert not tunnel.reached_goal(np.array([10.0, 0.0]))
        assert tunnel.reached_goal(np.array([49.5, 0.0]))

    def test_course_coordinates(self, tunnel):
        s, d = tunnel.course_coordinates(np.array([12.0, 0.8]))
        assert s == pytest.approx(12.0)
        assert d == pytest.approx(0.8)

    def test_heading_error_straight_course(self, tunnel):
        assert tunnel.heading_error(Pose2(10, 0, 0.3)) == pytest.approx(0.3)

    @given(st.floats(1.0, 49.0), st.floats(-1.2, 1.2))
    @settings(max_examples=40)
    def test_interior_points_clear(self, s, d):
        world = tunnel_world()
        point = np.array([s, d])
        assert world.in_collision(point, radius=0.3) == (abs(d) > 1.3 - 1e-9)


class TestSShapeWorld:
    def test_length_covers_80m(self, s_shape):
        # The S path is longer than its 80 m x-extent.
        assert s_shape.centerline.length >= 80.0

    def test_wider_than_tunnel(self, s_shape, tunnel):
        assert s_shape.half_width > tunnel.half_width

    def test_is_actually_s_shaped(self, s_shape):
        ys = s_shape.centerline.points[:, 1]
        assert ys.max() > 5.0
        assert ys.min() < -5.0

    def test_centerline_clear_along_course(self, s_shape):
        for s in np.linspace(1, s_shape.centerline.length - 1, 25):
            point = s_shape.centerline.point_at_arclength(float(s))
            assert not s_shape.in_collision(point, radius=0.3), f"collision at s={s}"

    def test_walls_offset_by_half_width(self, s_shape):
        for s in np.linspace(5, 75, 15):
            center = s_shape.centerline.point_at_arclength(float(s))
            assert s_shape.wall_clearance(center) == pytest.approx(
                s_shape.half_width, rel=0.1
            )

    def test_spawn_pose_on_course(self, s_shape):
        pose = s_shape.spawn_pose()
        assert not s_shape.in_collision(pose.position, radius=0.3)
        assert abs(s_shape.heading_error(pose)) < 0.05


class TestSpawnPose:
    def test_initial_angle_applied(self, tunnel):
        pose = tunnel.spawn_pose(initial_angle=math.radians(20))
        assert tunnel.heading_error(pose) == pytest.approx(math.radians(20))

    def test_lateral_offset_applied(self, tunnel):
        pose = tunnel.spawn_pose(lateral_offset=0.5)
        _, d = tunnel.course_coordinates(pose.position)
        assert d == pytest.approx(0.5)

    def test_offset_into_wall_rejected(self, tunnel):
        with pytest.raises(SimulationError):
            tunnel.spawn_pose(lateral_offset=2.0)


class TestWorldValidation:
    def test_negative_width_rejected(self, tunnel):
        with pytest.raises(SimulationError):
            World(
                name="bad",
                centerline=tunnel.centerline,
                half_width=-1.0,
                goal_arclength=10.0,
            )

    def test_goal_beyond_centerline_rejected(self, tunnel):
        with pytest.raises(SimulationError):
            World(
                name="bad",
                centerline=tunnel.centerline,
                half_width=1.0,
                goal_arclength=1e9,
            )

    def test_make_world_by_name(self):
        assert make_world("tunnel").name == "tunnel"
        assert make_world("s-shape").name == "s-shape"
        assert make_world("s_shape").name == "s-shape"

    def test_make_world_unknown(self):
        with pytest.raises(SimulationError):
            make_world("warehouse")

    def test_make_world_params_forwarded(self):
        world = make_world("s-shape", amplitude=3.0)
        assert world.centerline.points[:, 1].max() < 4.0

    def test_panorama_matches_depth(self, tunnel):
        pose = Pose2(10.0, 0.3, 0.1)
        angles = np.array([-0.4, 0.0, 0.4])
        pano = tunnel.panorama(pose, angles, max_range=100.0)
        for angle, expected in zip(angles, pano):
            assert tunnel.depth_along(pose, relative_angle=float(angle), max_range=100.0) == (
                pytest.approx(float(expected))
            )

    def test_rays_cannot_escape_caps(self, s_shape):
        # End caps close the corridor: every ray from inside must hit.
        pose = s_shape.spawn_pose()
        angles = np.linspace(-math.pi, math.pi, 73)
        pano = s_shape.panorama(pose, angles, max_range=1e6)
        assert pano.max() < 1e6


class TestCenterlineArrays:
    """The centerline's per-segment arrays every query kernel reads."""

    def test_matches_fresh_computation(self, tunnel, s_shape):
        for world in (tunnel, s_shape):
            line = world.centerline
            pts = line.points
            dirs = np.diff(pts, axis=0)
            lens = np.sqrt((dirs**2).sum(axis=1))
            units = dirs / lens[:, None]
            np.testing.assert_array_equal(line.sx, pts[:-1, 0])
            np.testing.assert_array_equal(line.sy, pts[:-1, 1])
            np.testing.assert_array_equal(line.lengths, lens)
            np.testing.assert_array_equal(line.cum, np.concatenate([[0.0], np.cumsum(lens)]))
            np.testing.assert_array_equal(line.units, units)
            np.testing.assert_array_equal(line.ux, units[:, 0])
            np.testing.assert_array_equal(line.uy, units[:, 1])
            normals = np.column_stack([-units[:, 1], units[:, 0]])
            np.testing.assert_array_equal(line.normals, normals)

    def test_arrays_are_read_only(self, s_shape):
        line = s_shape.centerline
        for array in (
            line.sx, line.sy, line.lengths, line.cum,
            line.units, line.ux, line.uy, line.normals,
        ):
            with pytest.raises(ValueError):
                array[0] = 99.0

    def test_batch_course_frames_uses_cache(self, s_shape):
        # Same answers as the per-point scalar projection.
        points = np.array([[5.0, 1.0], [20.0, -2.0], [40.0, 3.0]])
        offsets, yaws = s_shape.batch_course_frames(points)
        for point, offset in zip(points, offsets):
            _, d = s_shape.course_coordinates(point)
            assert offset == pytest.approx(d, abs=1e-9)


class TestCachedWorld:
    def test_same_instance_for_same_params(self):
        from repro.env.worlds import cached_world

        assert cached_world("tunnel") is cached_world("tunnel")
        assert cached_world("s-shape", amplitude=8.0) is cached_world(
            "s-shape", amplitude=8.0
        )

    def test_distinct_params_distinct_instances(self):
        from repro.env.worlds import cached_world

        assert cached_world("tunnel") is not cached_world("tunnel", length=40.0)

    def test_matches_uncached_build(self):
        from repro.env.worlds import cached_world

        cached = cached_world("s-shape")
        fresh = make_world("s-shape")
        np.testing.assert_array_equal(
            cached.centerline.points, fresh.centerline.points
        )
        assert cached.goal_arclength == fresh.goal_arclength

    def test_unhashable_params_fall_back(self):
        from repro.env.worlds import cached_world

        # Builders reject unknown kwargs; unhashable values must not
        # break the memo key construction before that.
        with pytest.raises(TypeError):
            cached_world("tunnel", bogus=[1, 2])


class TestCourseHelpers:
    """The shared centerline generators (repro.env.courses)."""

    def test_straight_matches_legacy_tunnel(self):
        from repro.env.courses import straight_centerline

        pts = straight_centerline(50.0)
        np.testing.assert_array_equal(pts, tunnel_world().centerline.points)

    def test_sine_single_period_matches_legacy(self):
        from repro.env.courses import sine_centerline

        pts = sine_centerline(80.0, 10.0, 161)
        np.testing.assert_array_equal(pts, s_shape_world().centerline.points)

    def test_sine_periods_parameter(self):
        from repro.env.courses import sine_centerline

        two = sine_centerline(80.0, 10.0, 161, periods=2.0)
        # Two full periods: y returns to zero at the quarter points.
        assert two[80][1] == pytest.approx(0.0, abs=1e-9)
        assert two[0][1] == pytest.approx(0.0, abs=1e-9)

    def test_zigzag_alternates(self):
        from repro.env.courses import zigzag_centerline

        pts = zigzag_centerline(64.0, 2.0, 8)
        assert pts.shape == (9, 2)
        assert pts[1][1] == 2.0 and pts[2][1] == -2.0
        assert pts[0][1] == 0.0 and pts[-1][1] == 0.0


class TestEdgeGeometry:
    """Degenerate and boundary world geometry."""

    def test_short_centerline_still_builds(self):
        # The shortest legal course: a two-point centerline.
        from repro.env.geometry import Polyline

        world = World(
            name="short",
            centerline=Polyline(np.array([[0.0, 0.0], [20.0, 0.0]])),
            half_width=1.0,
            goal_arclength=19.0,
        )
        assert world.reached_goal(np.array([19.5, 0.0]))
        assert not world.in_collision(np.array([10.0, 0.0]), radius=0.3)

    def test_single_point_centerline_rejected(self):
        from repro.env.geometry import Polyline

        with pytest.raises(ValueError):
            Polyline(np.array([[0.0, 0.0]]))

    def test_duplicate_point_centerline_rejected(self):
        from repro.env.geometry import Polyline

        with pytest.raises(ValueError):
            Polyline(np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]))

    def test_obstacle_touching_wall_still_collides(self):
        # An obstacle whose rim touches the wall: both surfaces are solid.
        from repro.scenario import ObstacleSpec, Scenario, world_from_scenario
        from repro.scenario.schema import GeometrySpec

        world = world_from_scenario(
            Scenario(
                name="wall-hugger",
                geometry=GeometrySpec(family="straight"),
                obstacles=(ObstacleSpec(s=25.0, d=1.6, radius=0.4),),
            )
        )
        # Positions near the obstacle's inner rim and near the wall both
        # register as collisions.
        assert world.in_collision(np.array([25.0, 1.2]), radius=0.1)
        assert world.in_collision(np.array([25.0, 1.55]), radius=0.1)

    def test_empty_obstacles_identical_soup(self):
        # A World with obstacles=() must build the exact pre-obstacle
        # segment list (golden-trace invariance of the refactor).
        legacy = tunnel_world()
        explicit = World(
            name="tunnel",
            centerline=legacy.centerline,
            half_width=legacy.half_width,
            goal_arclength=legacy.goal_arclength,
            obstacles=(),
        )
        want = [(s.ax, s.ay, s.bx, s.by) for s in legacy.walls.segments]
        got = [(s.ax, s.ay, s.bx, s.by) for s in explicit.walls.segments]
        assert want == got


class TestScenarioWorldCaching:
    def test_dict_params_cache_by_canonical_json(self):
        from repro.env.worlds import cached_world

        spec = {"geometry": {"family": "straight"}, "obstacles": []}
        a = cached_world("scenario", spec=spec)
        b = cached_world("scenario", spec=json.loads(json.dumps(spec)))
        assert a is b

    def test_different_specs_distinct(self):
        from repro.env.worlds import cached_world

        a = cached_world("scenario", spec={"geometry": {"family": "straight"}})
        b = cached_world(
            "scenario", spec={"geometry": {"family": "straight", "length": 60.0}}
        )
        assert a is not b
