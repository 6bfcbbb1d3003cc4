"""Tests for the SLAM substrate: grid, scan matcher, pipeline, app."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro import CoSimConfig, run_mission
from repro.env.geometry import Pose2
from repro.errors import ConfigError
from repro.slam.grid import GridParams, OccupancyGrid
from repro.slam.pipeline import SlamPipeline, slam_grid_for_world
from repro.slam.scanmatch import MatcherParams, ScanMatcher

BEAMS = 64
FOV = 4.7124
MAX_RANGE = 30.0
ANGLES = np.linspace(-FOV / 2, FOV / 2, BEAMS)


def small_grid() -> OccupancyGrid:
    return OccupancyGrid(
        GridParams(origin_x=0.0, origin_y=0.0, width_m=10.0, height_m=10.0, resolution=0.25)
    )


def scan_from(world, pose: Pose2, noise=0.0, seed=0) -> np.ndarray:
    ranges = world.panorama(pose, ANGLES, max_range=MAX_RANGE)
    if noise:
        ranges = ranges + np.random.default_rng(seed).normal(0, noise, BEAMS)
    return np.clip(ranges, 0.0, MAX_RANGE)


class TestGridBasics:
    def test_param_validation(self):
        with pytest.raises(ConfigError):
            GridParams(0, 0, width_m=-1, height_m=1)
        with pytest.raises(ConfigError):
            GridParams(0, 0, width_m=1, height_m=1, resolution=0)

    def test_world_to_cell_round_trip(self):
        grid = small_grid()
        rows, cols, valid = grid.world_to_cell(np.array([[1.3, 2.7]]))
        assert valid[0]
        center = grid.cell_center(int(rows[0]), int(cols[0]))
        assert abs(center[0] - 1.3) < grid.params.resolution
        assert abs(center[1] - 2.7) < grid.params.resolution

    def test_out_of_bounds_detected(self):
        grid = small_grid()
        _, _, valid = grid.world_to_cell(np.array([[50.0, 50.0], [-1.0, 2.0]]))
        assert not valid.any()

    def test_fresh_grid_is_unknown(self):
        grid = small_grid()
        probs = grid.occupancy_probability(np.array([[5.0, 5.0]]))
        assert probs[0] == pytest.approx(0.5)
        assert grid.observed_fraction == 0.0


class TestScanIntegration:
    def test_hit_marks_occupied_and_path_free(self):
        grid = small_grid()
        # A single beam from (1, 5) pointing +x hitting at range 4.
        touched = grid.integrate_scan(1.0, 5.0, 0.0, np.array([0.0]), np.array([4.0]), MAX_RANGE)
        assert touched > 0
        probs = grid.occupancy_probability(np.array([[5.0, 5.0], [3.0, 5.0]]))
        assert probs[0] > 0.5  # endpoint occupied
        assert probs[1] < 0.5  # along the ray: free

    def test_max_range_miss_carves_but_no_hit(self):
        grid = small_grid()
        # Two passes: one miss update (-0.35) does not cross the -0.5
        # "known free" evidence threshold by itself.
        for _ in range(2):
            grid.integrate_scan(
                1.0, 5.0, 0.0, np.array([0.0]), np.array([MAX_RANGE]), MAX_RANGE
            )
        # No occupied endpoint anywhere on the ray.
        assert grid.occupied_cells == 0
        assert grid.free_cells > 0

    def test_logodds_clamped(self):
        grid = small_grid()
        for _ in range(30):
            grid.integrate_scan(1.0, 5.0, 0.0, np.array([0.0]), np.array([4.0]), MAX_RANGE)
        assert grid.logodds.max() <= grid.params.clamp
        assert grid.logodds.min() >= -grid.params.clamp

    def test_mismatched_shapes_rejected(self):
        grid = small_grid()
        with pytest.raises(ConfigError):
            grid.integrate_scan(1, 5, 0, np.array([0.0, 0.1]), np.array([4.0]), MAX_RANGE)

    def test_counters(self):
        grid = small_grid()
        grid.integrate_scan(1.0, 5.0, 0.0, np.array([0.0]), np.array([4.0]), MAX_RANGE)
        assert grid.updates == 1
        assert grid.cells_touched_total > 0

    def test_tunnel_scan_maps_both_walls(self, tunnel):
        grid = slam_grid_for_world(tunnel)
        pose = Pose2(10.0, 0.0, 0.0)
        grid.integrate_scan(10.0, 0.0, 0.0, ANGLES, scan_from(tunnel, pose), MAX_RANGE)
        probs = grid.occupancy_probability(np.array([[10.0, 1.6], [10.0, -1.6], [10.0, 0.0]]))
        assert probs[0] > 0.5
        assert probs[1] > 0.5
        assert probs[2] < 0.5  # center is free

    def test_endpoint_evidence_known_mask(self):
        grid = small_grid()
        grid.integrate_scan(1.0, 5.0, 0.0, np.array([0.0]), np.array([4.0]), MAX_RANGE)
        probs, known = grid.endpoint_evidence(np.array([[5.0, 5.0], [5.0, 9.0]]))
        assert known[0] and not known[1]


class TestScanMatcher:
    def test_matcher_param_validation(self):
        with pytest.raises(ConfigError):
            MatcherParams(step_shrink=1.5)
        with pytest.raises(ConfigError):
            MatcherParams(max_iterations=0)

    def test_empty_map_returns_initial_pose(self, tunnel):
        grid = slam_grid_for_world(tunnel)
        matcher = ScanMatcher(grid)
        pose = Pose2(10.0, 0.0, 0.0)
        result = matcher.match(10.0, 0.0, 0.0, ANGLES, scan_from(tunnel, pose), MAX_RANGE)
        assert (result.x, result.y, result.yaw) == (10.0, 0.0, 0.0)
        assert result.iterations == 0

    def test_recovers_lateral_offset(self, s_shape):
        grid = slam_grid_for_world(s_shape)
        true_pose = Pose2(10.0, float(s_shape.centerline.project(np.array([10.0, 0.0]))[1]), 0.4)
        # Build a map from a few nearby true poses.
        for s in (3.0, 5.0, 7.0, 9.0):
            c = s_shape.centerline.point_at_arclength(s)
            t = s_shape.centerline.tangent_at_arclength(s)
            yaw = math.atan2(t[1], t[0])
            pose = Pose2(float(c[0]), float(c[1]), yaw)
            grid.integrate_scan(pose.x, pose.y, pose.yaw, ANGLES, scan_from(s_shape, pose), MAX_RANGE)
        # Now match a scan from a known pose, starting laterally offset.
        c = s_shape.centerline.point_at_arclength(8.0)
        t = s_shape.centerline.tangent_at_arclength(8.0)
        yaw = math.atan2(t[1], t[0])
        truth = Pose2(float(c[0]), float(c[1]), yaw)
        scan = scan_from(s_shape, truth)
        result = ScanMatcher(grid).match(
            truth.x + 0.3, truth.y - 0.3, truth.yaw, ANGLES, scan, MAX_RANGE
        )
        err_before = math.hypot(0.3, 0.3)
        err_after = math.hypot(result.x - truth.x, result.y - truth.y)
        assert err_after < err_before
        assert result.iterations >= 1
        assert result.evaluations > result.iterations

    def test_correction_bounded_by_window(self, tunnel):
        grid = slam_grid_for_world(tunnel)
        pose = Pose2(10.0, 0.0, 0.0)
        for x in (6.0, 8.0, 10.0):
            p = Pose2(x, 0.0, 0.0)
            grid.integrate_scan(p.x, p.y, p.yaw, ANGLES, scan_from(tunnel, p), MAX_RANGE)
        params = MatcherParams(max_correction_linear=0.5)
        result = ScanMatcher(grid, params).match(
            10.0, 0.0, 0.0, ANGLES, scan_from(tunnel, pose), MAX_RANGE
        )
        assert abs(result.x - 10.0) <= 0.5 + 1e-9
        assert abs(result.y - 0.0) <= 0.5 + 1e-9


class TestPipeline:
    def _drive(self, world, n=60, odo_noise=0.04, seed=0):
        rng = np.random.default_rng(seed)
        sp = world.spawn_pose()
        pipe = SlamPipeline(slam_grid_for_world(world), sp.x, sp.y, sp.yaw)
        prev = sp
        s = 0.5
        slam_errs, odo_errs = [], []
        ox, oy, oyaw = sp.x, sp.y, sp.yaw
        for _ in range(n):
            s += 0.3
            c = world.centerline.point_at_arclength(s)
            t = world.centerline.tangent_at_arclength(s)
            yaw = math.atan2(t[1], t[0])
            pose = Pose2(float(c[0]), float(c[1]), yaw)
            scan = np.clip(
                world.panorama(pose, ANGLES, max_range=MAX_RANGE)
                + rng.normal(0, 0.03, BEAMS),
                0,
                MAX_RANGE,
            )
            dxw, dyw = pose.x - prev.x, pose.y - prev.y
            cl, sl = math.cos(prev.yaw), math.sin(prev.yaw)
            dxb = dxw * cl + dyw * sl + rng.normal(0, odo_noise)
            dyb = -dxw * sl + dyw * cl + rng.normal(0, odo_noise)
            dyaw = math.atan2(
                math.sin(pose.yaw - prev.yaw), math.cos(pose.yaw - prev.yaw)
            ) + rng.normal(0, 0.015)
            pipe.process(dxb, dyb, dyaw, ANGLES, scan, MAX_RANGE)
            co, so = math.cos(oyaw), math.sin(oyaw)
            ox += dxb * co - dyb * so
            oy += dxb * so + dyb * co
            oyaw += dyaw
            slam_errs.append(math.hypot(pose.x - pipe.x, pose.y - pipe.y))
            odo_errs.append(math.hypot(pose.x - ox, pose.y - oy))
            prev = pose
        return pipe, slam_errs, odo_errs

    def test_map_coverage_grows(self, s_shape):
        pipe, _, _ = self._drive(s_shape, n=40)
        assert pipe.grid.observed_fraction > 0.02
        assert pipe.grid.occupied_cells > 20
        assert pipe.scans_processed == 40

    def test_localization_bounded(self, s_shape):
        _, slam_errs, _ = self._drive(s_shape, n=80)
        assert max(slam_errs) < 3.0

    def test_slam_beats_odometry_in_rich_geometry(self, s_shape):
        _, slam_errs, odo_errs = self._drive(s_shape, n=200, odo_noise=0.05)
        assert np.mean(slam_errs) < np.mean(odo_errs)
        assert slam_errs[-1] < odo_errs[-1]

    def test_flops_accumulate(self, tunnel):
        pipe, _, _ = self._drive(tunnel, n=20)
        assert pipe.total_flops > 0

    def test_invalid_max_range(self, tunnel):
        pipe = SlamPipeline(slam_grid_for_world(tunnel), 0.5, 0.0, 0.0)
        with pytest.raises(ConfigError):
            pipe.process(0.1, 0, 0, ANGLES, np.full(BEAMS, 5.0), max_range=0.0)


class TestSlamNavigationMission:
    def test_slam_mission_completes(self):
        result = run_mission(
            CoSimConfig(
                world="s-shape",
                controller="slam",
                target_velocity=6.0,
                max_sim_time=45.0,
            )
        )
        assert result.completed
        assert result.collisions == 0
        stats = result.slam_stats
        assert stats.updates > 50
        # Localization stays useful (the controller steered from it).
        assert stats.mean_pose_error < 2.0
        # Data-dependent compute happened.
        assert stats.mean_iterations > 1
        assert stats.total_flops > 0

    def test_slam_uses_no_accelerator(self):
        result = run_mission(
            CoSimConfig(
                world="tunnel",
                controller="slam",
                target_velocity=3.0,
                max_sim_time=10.0,
            )
        )
        assert result.activity_factor == 0.0
