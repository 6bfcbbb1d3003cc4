"""Tests for the frame-stepped environment simulator and its RPC facade."""

from __future__ import annotations

import numpy as np
import pytest

from repro.env.flightctl import VelocityTarget
from repro.env.rpc import CameraFrame, RpcServer
from repro.env.simulator import EnvConfig, EnvSimulator
from repro.env.worlds import make_world
from repro.errors import SimulationError


class TestEnvConfig:
    def test_frame_dt(self):
        assert EnvConfig(frame_rate=60.0).frame_dt == pytest.approx(1 / 60)

    def test_rejects_bad_frame_rate(self):
        with pytest.raises(SimulationError):
            EnvConfig(frame_rate=0.0)


class TestStepping:
    def test_time_only_advances_when_stepped(self, env_sim):
        assert env_sim.sim_time == 0.0
        env_sim.continue_for_frames(6)
        assert env_sim.sim_time == pytest.approx(0.1)
        # No free-running: time unchanged until the next grant.
        assert env_sim.sim_time == pytest.approx(0.1)

    def test_negative_frames_rejected(self, env_sim):
        with pytest.raises(SimulationError):
            env_sim.continue_for_frames(-1)

    def test_zero_frames_is_noop(self, env_sim):
        env_sim.continue_for_frames(0)
        assert env_sim.frame == 0

    def test_trajectory_recorded_per_frame(self, env_sim):
        env_sim.continue_for_frames(10)
        assert len(env_sim.trajectory) == 11  # initial sample + 10 frames

    def test_grounded_without_takeoff(self, env_sim):
        env_sim.send_velocity_target(VelocityTarget(v_forward=5.0))
        env_sim.continue_for_frames(60)
        assert env_sim.get_state().speed < 0.01  # controller not armed

    def test_takeoff_climbs(self, env_sim):
        env_sim.takeoff()
        env_sim.continue_for_frames(180)
        assert env_sim.get_state().z > 0.5

    def test_flies_forward_after_target(self, env_sim):
        env_sim.takeoff()
        env_sim.send_velocity_target(VelocityTarget(v_forward=3.0, altitude=1.5))
        env_sim.continue_for_frames(60 * 5)
        assert env_sim.get_state().x > 8.0

    def test_mission_completion(self):
        sim = EnvSimulator(EnvConfig(world="tunnel"))
        sim.takeoff()
        sim.send_velocity_target(VelocityTarget(v_forward=10.0, altitude=1.5))
        sim.continue_for_frames(60 * 12)
        assert sim.mission_complete
        assert sim.mission_time is not None
        assert 0 < sim.mission_time <= sim.sim_time
        assert sim.course_progress == 1.0

    def test_reset_restores_initial_conditions(self, env_sim):
        env_sim.takeoff()
        env_sim.send_velocity_target(VelocityTarget(v_forward=3.0))
        env_sim.continue_for_frames(120)
        env_sim.reset()
        assert env_sim.sim_time == 0.0
        assert env_sim.frame == 0
        assert env_sim.collision_count == 0
        assert not env_sim.mission_complete
        assert len(env_sim.trajectory) == 1

    def test_initial_angle_config(self):
        sim = EnvSimulator(EnvConfig(world="tunnel", initial_angle_deg=20.0))
        _, _, heading_error = sim.course_state()
        assert heading_error == pytest.approx(np.deg2rad(20.0), abs=1e-6)

    def test_course_state_tracks_offset(self):
        sim = EnvSimulator(EnvConfig(world="tunnel", initial_lateral_offset=0.5))
        _, d, _ = sim.course_state()
        assert d == pytest.approx(0.5, abs=1e-6)


def _fresh_course(sim):
    """``(s, d, heading_error)`` of the current pose, projected afresh."""
    st = sim.dynamics.state
    s, d = sim.world.course_coordinates(np.array([st.x, st.y]))
    return s, d, sim.world.heading_error(st.pose)


def _assert_course_coherent(sim, reached_goal):
    s, d, heading_error = _fresh_course(sim)
    assert sim.course_state() == (s, d, heading_error)
    assert sim.course_progress == min(1.0, s / sim.world.goal_arclength)
    assert sim.mission_complete == reached_goal


class TestCourseStateCache:
    """The cached course state equals a fresh projection at every frame."""

    @staticmethod
    def _fly(sim, target, frames):
        """Step frame by frame, checking coherence; returns per-frame
        "position held" flags."""
        sim.send_velocity_target(target)
        reached = False
        held = []
        for _ in range(frames):
            before = (sim.dynamics.state.x, sim.dynamics.state.y)
            sim.continue_for_frames(1)
            held.append((sim.dynamics.state.x, sim.dynamics.state.y) == before)
            reached = reached or sim.world.reached_goal(sim.position)
            _assert_course_coherent(sim, reached)
        return held

    def test_coherent_through_wall_collision_and_reset(self):
        # Curved course, no steering: the drone flies into the outer wall
        # and is held against it during recovery.
        sim = EnvSimulator(EnvConfig(world="s-shape", initial_angle_deg=10.0))
        _assert_course_coherent(sim, False)
        sim.takeoff()
        held = self._fly(sim, VelocityTarget(v_forward=8.0, altitude=1.5), 60 * 4)
        assert sim.collision_count > 0
        assert any(held)
        sim.reset()
        _assert_course_coherent(sim, False)
        assert sim.course_state() == _fresh_course(EnvSimulator(sim.config))

    def test_coherent_until_goal(self):
        sim = EnvSimulator(EnvConfig(world="tunnel"))
        sim.takeoff()
        self._fly(sim, VelocityTarget(v_forward=10.0, altitude=1.5), 60 * 8)
        assert sim.mission_complete
        assert sim.course_progress == 1.0


class TestProjectionBudget:
    """A committed frame projects once: the collision test's projection
    is the trajectory sample's."""

    def test_one_projection_per_committed_frame(self, monkeypatch):
        world = make_world("s-shape")
        calls = []
        project = world.course_coordinates

        def counting(position):
            calls.append(1)
            return project(position)

        monkeypatch.setattr(world, "course_coordinates", counting)
        sim = EnvSimulator(EnvConfig(world="s-shape", initial_angle_deg=10.0), world=world)
        assert len(calls) == 1  # the spawn sample
        sim.takeoff()
        sim.send_velocity_target(VelocityTarget(v_forward=8.0, altitude=1.5))
        held_frames = 0
        for _ in range(60 * 4):
            before = (sim.dynamics.state.x, sim.dynamics.state.y)
            calls.clear()
            sim.continue_for_frames(1)
            if (sim.dynamics.state.x, sim.dynamics.state.y) == before:
                held_frames += 1
                assert 1 <= len(calls) <= 2
            else:
                assert len(calls) == 1
        assert sim.collision_count > 0 and held_frames > 0


class TestSensorsApi:
    def test_camera_image(self, env_sim):
        image = env_sim.get_camera_image()
        assert image.shape == (env_sim.config.camera.height, env_sim.config.camera.width)

    def test_imu_reading(self, env_sim):
        reading = env_sim.get_imu()
        assert reading.timestamp == env_sim.sim_time

    def test_depth_positive(self, env_sim):
        assert env_sim.get_depth() > 0.0


class TestRpc:
    @pytest.fixture
    def server(self, env_sim):
        return RpcServer(env_sim)

    def test_unknown_method(self, env_sim):
        server = RpcServer(env_sim)
        with pytest.raises(SimulationError):
            server.call("format_disk")

    def test_unserializable_args_rejected(self, env_sim):
        server = RpcServer(env_sim)
        with pytest.raises(SimulationError):
            server.call("continue_for_frames", object())

    def test_methods_listing(self, env_sim):
        server = RpcServer(env_sim)
        assert "get_camera_image" in server.methods
        assert "send_velocity_target" in server.methods

    def test_full_flight_via_rpc(self, server):
        server.call("takeoff")
        server.call("send_velocity_target", 3.0, 0.0, 0.0, 1.5)
        sample, collisions, complete = server.call("continue_for_frames", 60 * 3)
        state = server.call("get_state")
        assert state.x > 4.0
        # The advance answers with the last frame's sample of the state.
        assert sample.time == pytest.approx(3.0)
        assert (sample.x, sample.y, sample.z, sample.yaw, sample.speed) == (
            state.x, state.y, state.z, state.yaw, state.speed
        )
        assert collisions == 0
        assert not complete

    def test_camera_payload(self, server):
        frame = server.call("get_camera_image")
        assert isinstance(frame, CameraFrame)
        assert frame.height * frame.width == len(frame.pixels)
        assert frame.half_width == pytest.approx(1.6)

