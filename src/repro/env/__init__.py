"""Environment simulation substrate (the AirSim substitute).

This package provides a frame-stepped quadrotor environment simulator with
procedural corridor worlds, a software-rasterized first-person camera, IMU
and depth sensors, and a SimpleFlight-style cascaded PID flight controller.
It exposes the same *surface* the paper's synchronizer needs from AirSim:
discrete time-stepping plus an RPC-style API for sensor reads and actuation.
"""

from repro.env.geometry import Pose2, Ray2, Segment2
from repro.env.worlds import World, s_shape_world, tunnel_world
from repro.env.physics import DroneState, QuadrotorDynamics
from repro.env.flightctl import SimpleFlightController, VelocityTarget
from repro.env.sensors import DepthSensor, Imu, ImuReading
from repro.env.camera import FpvCamera
from repro.env.simulator import EnvSimulator, EnvConfig
from repro.env.rpc import CameraFrame, RpcServer

__all__ = [
    "Pose2",
    "Ray2",
    "Segment2",
    "World",
    "tunnel_world",
    "s_shape_world",
    "DroneState",
    "QuadrotorDynamics",
    "SimpleFlightController",
    "VelocityTarget",
    "Imu",
    "ImuReading",
    "DepthSensor",
    "FpvCamera",
    "EnvSimulator",
    "EnvConfig",
    "CameraFrame",
    "RpcServer",
]
