"""Unit and property tests for repro.env.geometry."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.env.geometry import (
    Polyline,
    Pose2,
    Ray2,
    Segment2,
    SegmentSoup,
    angle_difference,
    wrap_angle,
)

finite_angle = st.floats(-50.0, 50.0, allow_nan=False)


class TestWrapAngle:
    def test_zero(self):
        assert wrap_angle(0.0) == 0.0

    def test_pi_maps_to_pi(self):
        assert wrap_angle(math.pi) == pytest.approx(math.pi)

    def test_slightly_over_pi_wraps_negative(self):
        assert wrap_angle(math.pi + 0.1) == pytest.approx(-math.pi + 0.1)

    def test_negative_wrap(self):
        assert wrap_angle(-3 * math.pi / 2) == pytest.approx(math.pi / 2)

    @given(finite_angle)
    def test_range_invariant(self, theta):
        wrapped = wrap_angle(theta)
        assert -math.pi < wrapped <= math.pi + 1e-12

    @given(finite_angle)
    def test_preserves_direction(self, theta):
        wrapped = wrap_angle(theta)
        # Same point on the unit circle.
        assert math.cos(wrapped) == pytest.approx(math.cos(theta), abs=1e-9)
        assert math.sin(wrapped) == pytest.approx(math.sin(theta), abs=1e-9)

    @given(finite_angle, finite_angle)
    def test_angle_difference_antisymmetric(self, a, b):
        assert angle_difference(a, b) == pytest.approx(-angle_difference(b, a), abs=1e-9) or (
            abs(abs(angle_difference(a, b)) - math.pi) < 1e-9
        )


class TestPose2:
    def test_forward_at_zero_yaw(self):
        pose = Pose2(0, 0, 0)
        np.testing.assert_allclose(pose.forward, [1, 0], atol=1e-12)
        np.testing.assert_allclose(pose.left, [0, 1], atol=1e-12)

    def test_forward_at_quarter_turn(self):
        pose = Pose2(0, 0, math.pi / 2)
        np.testing.assert_allclose(pose.forward, [0, 1], atol=1e-12)
        np.testing.assert_allclose(pose.left, [-1, 0], atol=1e-12)

    def test_body_world_round_trip(self):
        pose = Pose2(3.0, -2.0, 0.7)
        point = np.array([5.0, 4.0])
        back = pose.transform_to_world(pose.transform_to_body(point))
        np.testing.assert_allclose(back, point, atol=1e-12)

    @given(
        st.floats(-100, 100),
        st.floats(-100, 100),
        st.floats(-math.pi, math.pi),
        st.floats(-10, 10),
        st.floats(-10, 10),
    )
    @settings(max_examples=50)
    def test_round_trip_property(self, x, y, yaw, px, py):
        pose = Pose2(x, y, yaw)
        point = np.array([px, py])
        back = pose.transform_to_body(pose.transform_to_world(point))
        np.testing.assert_allclose(back, point, atol=1e-8)


class TestSegment2:
    def test_length(self):
        assert Segment2(0, 0, 3, 4).length == pytest.approx(5.0)

    # Point-to-segment distance has one implementation, the wall-distance
    # kernel of SegmentSoup; a one-segment soup measures a single segment.
    def test_distance_to_point_on_segment(self):
        soup = SegmentSoup([Segment2(0, 0, 10, 0)])
        assert soup.min_distance(np.array([5.0, 0.0])) == pytest.approx(0.0)

    def test_distance_to_point_perpendicular(self):
        soup = SegmentSoup([Segment2(0, 0, 10, 0)])
        assert soup.min_distance(np.array([5.0, 3.0])) == pytest.approx(3.0)

    def test_distance_clamps_to_endpoints(self):
        soup = SegmentSoup([Segment2(0, 0, 10, 0)])
        assert soup.min_distance(np.array([13.0, 4.0])) == pytest.approx(5.0)

    def test_degenerate_segment(self):
        soup = SegmentSoup([Segment2(1, 1, 1, 1)])
        assert soup.min_distance(np.array([4.0, 5.0])) == pytest.approx(5.0)


class TestSegmentSoup:
    def test_requires_segments(self):
        with pytest.raises(ValueError):
            SegmentSoup([])

    def test_min_distance_picks_nearest(self):
        soup = SegmentSoup([Segment2(0, 1, 10, 1), Segment2(0, -5, 10, -5)])
        assert soup.min_distance(np.array([5.0, 0.0])) == pytest.approx(1.0)

    def test_cast_ray_hit(self):
        soup = SegmentSoup([Segment2(5, -1, 5, 1)])
        assert soup.cast_ray(np.array([0.0, 0.0]), 0.0) == pytest.approx(5.0)

    def test_cast_ray_miss_returns_max_range(self):
        soup = SegmentSoup([Segment2(5, -1, 5, 1)])
        assert soup.cast_ray(np.array([0.0, 0.0]), math.pi, max_range=42.0) == 42.0

    def test_cast_ray_behind_is_miss(self):
        soup = SegmentSoup([Segment2(-5, -1, -5, 1)])
        assert soup.cast_ray(np.array([0.0, 0.0]), 0.0, max_range=42.0) == 42.0

    def test_cast_rays_vectorized_matches_scalar(self):
        soup = SegmentSoup(
            [Segment2(5, -10, 5, 10), Segment2(-3, -10, -3, 10), Segment2(-10, 4, 10, 4)]
        )
        angles = np.linspace(-math.pi, math.pi, 33)
        batch = soup.cast_rays(np.zeros(2), angles, max_range=100.0)
        for angle, expected in zip(angles, batch):
            assert soup.cast_ray(np.zeros(2), float(angle), max_range=100.0) == pytest.approx(
                float(expected)
            )

    def test_parallel_ray_no_hit(self):
        soup = SegmentSoup([Segment2(0, 1, 10, 1)])
        # Ray along the x-axis is parallel to the segment.
        assert soup.cast_ray(np.zeros(2), 0.0, max_range=99.0) == 99.0


class TestPolyline:
    def test_rejects_single_point(self):
        with pytest.raises(ValueError):
            Polyline(np.array([[0.0, 0.0]]))

    def test_rejects_degenerate_segment(self):
        with pytest.raises(ValueError):
            Polyline(np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]))

    def test_length(self):
        line = Polyline(np.array([[0.0, 0.0], [3.0, 0.0], [3.0, 4.0]]))
        assert line.length == pytest.approx(7.0)

    def test_point_at_arclength(self):
        line = Polyline(np.array([[0.0, 0.0], [3.0, 0.0], [3.0, 4.0]]))
        np.testing.assert_allclose(line.point_at_arclength(5.0), [3.0, 2.0])

    def test_point_at_arclength_clamps(self):
        line = Polyline(np.array([[0.0, 0.0], [1.0, 0.0]]))
        np.testing.assert_allclose(line.point_at_arclength(99.0), [1.0, 0.0])
        np.testing.assert_allclose(line.point_at_arclength(-5.0), [0.0, 0.0])

    def test_tangent_and_normal_orthogonal(self):
        line = Polyline(np.array([[0.0, 0.0], [3.0, 1.0], [5.0, 4.0]]))
        for s in (0.5, 2.0, 4.0):
            t = line.tangent_at_arclength(s)
            n = line.normal_at_arclength(s)
            assert abs(t @ n) < 1e-12
            assert np.linalg.norm(t) == pytest.approx(1.0)

    def test_tangent_segment_matches_numpy_lookup(self):
        # The scalar clamp + bisect must pick the segment np.clip +
        # np.searchsorted(side="right") picks, at and around every vertex.
        pts = np.column_stack([np.linspace(0, 20, 41), 3.0 * np.sin(np.linspace(0, 6, 41))])
        line = Polyline(pts)
        cum = line.cum
        values = [-1.0, -0.0, 0.0, line.length, line.length + 1.0, math.inf, -math.inf]
        values += list(np.random.default_rng(0).uniform(-1.0, line.length + 1.0, 500))
        for vertex in cum:
            values += [vertex, np.nextafter(vertex, -np.inf), np.nextafter(vertex, np.inf)]
        for s in values:
            clipped = float(np.clip(s, 0.0, line.length))
            i = min(int(np.searchsorted(cum, clipped, side="right")) - 1, len(cum) - 2)
            assert line.tangent_at_arclength(s).tobytes() == line.units[i].tobytes(), s

    def test_project_on_straight_line(self):
        line = Polyline(np.array([[0.0, 0.0], [10.0, 0.0]]))
        s, d = line.project(np.array([4.0, 2.0]))
        assert s == pytest.approx(4.0)
        assert d == pytest.approx(2.0)  # left of travel is +y here

    def test_project_right_side_negative(self):
        line = Polyline(np.array([[0.0, 0.0], [10.0, 0.0]]))
        _, d = line.project(np.array([4.0, -2.0]))
        assert d == pytest.approx(-2.0)

    @given(st.floats(0.5, 9.5), st.floats(-3, 3))
    @settings(max_examples=50)
    def test_project_inverts_offset_construction(self, s, d):
        line = Polyline(np.array([[0.0, 0.0], [10.0, 0.0]]))
        point = line.point_at_arclength(s) + d * line.normal_at_arclength(s)
        s2, d2 = line.project(point)
        assert s2 == pytest.approx(s, abs=1e-9)
        assert d2 == pytest.approx(d, abs=1e-9)

    def test_offset_straight(self):
        line = Polyline(np.array([[0.0, 0.0], [10.0, 0.0]]))
        left = line.offset(2.0)
        np.testing.assert_allclose(left.points[:, 1], 2.0)

    def test_offset_preserves_point_count(self):
        pts = np.column_stack([np.linspace(0, 10, 7), np.sin(np.linspace(0, 3, 7))])
        line = Polyline(pts)
        assert len(line.offset(0.5).points) == 7

    def test_to_segments_covers_length(self):
        line = Polyline(np.array([[0.0, 0.0], [3.0, 0.0], [3.0, 4.0]]))
        segs = line.to_segments()
        assert len(segs) == 2
        assert sum(s.length for s in segs) == pytest.approx(line.length)


class TestRay2:
    def test_from_pose(self):
        ray = Ray2.from_pose(Pose2(1, 2, 0.0), relative_angle=math.pi / 2)
        assert (ray.ox, ray.oy) == (1, 2)
        assert ray.dx == pytest.approx(0.0, abs=1e-12)
        assert ray.dy == pytest.approx(1.0)
