"""Tests for the Ackermann car vehicle mode."""

from __future__ import annotations

import math

import pytest

from repro import CoSimConfig, run_mission
from repro.env.car import CarCommand, CarController, CarDynamics, CarParams
from repro.env.flightctl import VelocityTarget
from repro.env.physics import DroneState
from repro.env.simulator import EnvConfig, EnvSimulator
from repro.env.worlds import tunnel_world
from repro.errors import SimulationError

DT = 1.0 / 60.0


@pytest.fixture
def road():
    return tunnel_world(length=300.0, width=30.0)


@pytest.fixture
def car(road):
    return CarDynamics(road, initial_state=DroneState(x=5.0, y=0.0))


def drive(car, command, seconds):
    for _ in range(int(seconds / DT)):
        car.step(command, DT)


class TestCarDynamics:
    def test_param_validation(self):
        with pytest.raises(SimulationError):
            CarParams(wheelbase=0.0)
        with pytest.raises(SimulationError):
            CarParams(max_steer=0.0)

    def test_accelerates_forward(self, car):
        drive(car, CarCommand(accel=3.0), 2.0)
        assert car.state.u > 3.0
        assert car.state.x > 8.0
        assert car.state.v == 0.0  # no sideslip

    def test_cannot_reverse(self, car):
        drive(car, CarCommand(accel=-5.0), 1.0)
        assert car.state.u == 0.0

    def test_speed_capped(self, road):
        car = CarDynamics(road, CarParams(max_speed=10.0), DroneState(x=5.0))
        drive(car, CarCommand(accel=4.0), 30.0)
        assert car.state.u <= 10.0 + 1e-9

    def test_steering_turns_when_moving(self, car):
        drive(car, CarCommand(accel=3.0), 1.0)
        drive(car, CarCommand(accel=0.0, steer_rate=1.0), 1.5)
        assert abs(car.state.yaw) > 0.1
        assert car.steering_angle > 0.0

    def test_no_turn_when_stationary(self, car):
        drive(car, CarCommand(steer_rate=1.0), 1.0)
        assert car.state.yaw == pytest.approx(0.0)
        assert car.state.r == 0.0

    def test_steering_angle_clipped(self, car):
        drive(car, CarCommand(steer_rate=10.0), 5.0)
        assert car.steering_angle <= car.params.max_steer + 1e-9

    def test_bicycle_yaw_rate(self, road):
        car = CarDynamics(road, initial_state=DroneState(x=5.0, u=6.0))
        car.steering_angle = 0.2
        car.step(CarCommand(), DT)
        expected = car.state.u * math.tan(car.steering_angle) / car.params.wheelbase
        assert car.state.r == pytest.approx(expected, rel=0.05)

    def test_turn_radius_matches_kinematics(self):
        """Driving a full circle returns near the start."""
        open_field = tunnel_world(length=300.0, width=100.0)
        car = CarDynamics(open_field, initial_state=DroneState(x=150.0, y=0.0, u=5.0))
        car.steering_angle = 0.3
        radius = car.params.wheelbase / math.tan(0.3)
        circumference = 2 * math.pi * radius
        start = (car.state.x, car.state.y)
        steps = int(circumference / 5.0 / DT)
        for _ in range(steps):
            car.step(CarCommand(accel=car.params.drag * 5.0), DT)
        # Euler integration + drag leave a few meters of closure error on
        # a ~100 m circumference; the path must still close approximately.
        assert car.state.x == pytest.approx(start[0], abs=8.0)
        assert car.state.y == pytest.approx(start[1], abs=8.0)

    def test_collision_and_recovery(self):
        world = tunnel_world(length=20.0, width=4.0)
        car = CarDynamics(world, initial_state=DroneState(x=3.0, u=8.0))
        drive(car, CarCommand(accel=4.0), 4.0)
        assert car.collisions  # hit the end cap
        assert car.state.u < 1.0

    def test_reset(self, car):
        drive(car, CarCommand(accel=3.0, steer_rate=0.5), 2.0)
        car.reset(DroneState(x=5.0))
        assert car.state.u == 0.0
        assert car.steering_angle == 0.0
        assert car.collisions == []


class TestCarController:
    def test_unarmed_idle(self, car):
        ctl = CarController()
        cmd = ctl.update(car, DT)
        assert (cmd.accel, cmd.steer_rate) == (0.0, 0.0)

    def test_tracks_speed(self, road):
        car = CarDynamics(road, initial_state=DroneState(x=5.0))
        ctl = CarController()
        ctl.arm()
        ctl.set_target(VelocityTarget(v_forward=8.0))
        for _ in range(int(10.0 / DT)):
            car.step(ctl.update(car, DT), DT)
        assert car.state.u == pytest.approx(8.0, abs=1.0)

    def test_tracks_yaw_rate(self, road):
        car = CarDynamics(road, initial_state=DroneState(x=50.0, u=6.0))
        ctl = CarController()
        ctl.arm()
        ctl.set_target(VelocityTarget(v_forward=6.0, yaw_rate=0.3))
        for _ in range(int(4.0 / DT)):
            car.step(ctl.update(car, DT), DT)
        assert car.state.r == pytest.approx(0.3, abs=0.1)

    def test_lateral_target_folds_into_steering(self, road):
        car = CarDynamics(road, initial_state=DroneState(x=50.0, u=6.0))
        ctl = CarController()
        ctl.arm()
        ctl.set_target(VelocityTarget(v_forward=6.0, v_lateral=2.0))
        for _ in range(int(3.0 / DT)):
            car.step(ctl.update(car, DT), DT)
        assert car.state.y > 0.5  # drifted left via steering

    def test_reset(self):
        ctl = CarController()
        ctl.arm()
        ctl.set_target(VelocityTarget(v_forward=5.0))
        ctl.reset()
        assert not ctl.armed
        assert ctl.targets_received == 0


class TestCarSimulator:
    def test_env_config_validation(self):
        with pytest.raises(SimulationError):
            EnvConfig(vehicle="boat")

    def test_car_simulator_drives(self):
        sim = EnvSimulator(EnvConfig(world="tunnel", vehicle="car"))
        sim.takeoff()
        sim.send_velocity_target(VelocityTarget(v_forward=3.0))
        sim.continue_for_frames(60 * 5)
        assert sim.get_state().x > 8.0
        assert sim.collision_count == 0

    def test_car_spawns_clear_of_cap(self):
        sim = EnvSimulator(EnvConfig(world="tunnel", vehicle="car"))
        clearance = sim.world.wall_clearance(sim.position)
        assert clearance > sim.dynamics.params.collision_radius

    def test_car_closed_loop_mpc_mission(self):
        config = CoSimConfig(
            world="s-shape",
            vehicle="car",
            controller="mpc",
            target_velocity=8.0,
            max_sim_time=40.0,
        )
        result = run_mission(config)
        assert result.completed
        assert result.collisions == 0

    def test_car_closed_loop_dnn_on_road(self):
        config = CoSimConfig(
            world="s-shape",
            vehicle="car",
            controller="dnn",
            model="resnet14",
            target_velocity=6.0,
            max_sim_time=45.0,
            world_params={"width": 12.0, "amplitude": 6.0},
        )
        result = run_mission(config)
        assert result.completed
        assert result.collisions == 0
