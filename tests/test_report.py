"""Tests for the reproduction-report generator and world frame batching."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.analysis.report import (
    PAPER_TABLE3,
    fig15_section,
    quick_report,
    table3_section,
)
from repro.env.worlds import s_shape_world, tunnel_world


class TestReportSections:
    def test_table3_section_rows(self):
        lines = table3_section()
        assert lines[0].startswith("## Table 3")
        for model in PAPER_TABLE3:
            assert any(model in line for line in lines), model
        # Every data row carries both paper and measured cells.
        data_rows = [l for l in lines if l.startswith("| resnet")]
        assert len(data_rows) == 5
        for row in data_rows:
            assert row.count("|") == 8

    def test_fig15_section_monotone(self):
        lines = fig15_section()
        rates = [
            float(line.split("|")[2].strip().split()[0])
            for line in lines
            if line.startswith("| ") and "MHz" in line
        ]
        assert rates == sorted(rates)

    def test_quick_report_smoke(self):
        text = quick_report(seed=0)
        assert text.startswith("# Reproduction report")
        assert "## Table 3" in text
        assert "## Figure 12" in text
        assert "## Figure 15" in text
        # The 9 m/s optimum flies clean.
        fig12 = text.split("## Figure 12")[1].split("##")[0]
        nine = next(line for line in fig12.splitlines() if line.startswith("| 9 m/s"))
        assert "(0 coll.)" in nine


class TestBatchCourseFrames:
    """The vectorized course-frame query must match the scalar one."""

    @pytest.mark.parametrize("world_builder", [tunnel_world, s_shape_world])
    def test_matches_scalar_projection(self, world_builder):
        world = world_builder()
        rng = np.random.default_rng(3)
        s_values = rng.uniform(2.0, world.centerline.length - 2.0, 25)
        d_values = rng.uniform(-0.8, 0.8, 25) * world.half_width
        points = np.array(
            [
                world.centerline.point_at_arclength(float(s))
                + float(d) * world.centerline.normal_at_arclength(float(s))
                for s, d in zip(s_values, d_values)
            ]
        )
        offsets, course_yaws = world.batch_course_frames(points)
        for i, point in enumerate(points):
            s, d = world.centerline.project(point)
            assert offsets[i] == pytest.approx(d, abs=1e-6)
            tangent = world.centerline.tangent_at_arclength(s)
            expected_yaw = math.atan2(tangent[1], tangent[0])
            assert course_yaws[i] == pytest.approx(expected_yaw, abs=1e-9)

    def test_heading_error_consistency(self):
        world = s_shape_world()
        pose = world.spawn_pose(initial_angle=0.25)
        offsets, course_yaws = world.batch_course_frames(pose.position[None, :])
        assert pose.yaw - course_yaws[0] == pytest.approx(
            world.heading_error(pose), abs=1e-9
        )
