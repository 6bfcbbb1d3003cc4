"""RPC facade over the environment simulator.

AirSim exposes "a remote-procedure-call (RPC) API for sensor readings and
actuation, as well as simulator commands" (Section 3.1), and the RoSE
synchronizer "communicat[es] with the AirSim server by using its RPC
interface" (Section 3.4.1).  This module reproduces that boundary: the
synchronizer never touches :class:`~repro.env.simulator.EnvSimulator`
directly; it holds an :class:`RpcServer` and calls it by method name, and
the server dispatches to registered handlers.

The server checks at the boundary that every argument is
JSON-serializable, as the real system requires.  Results are the
simulator's own in-process records, not marshalled: the IMU answers with
its :class:`~repro.env.sensors.ImuReading`, the lidar with its
:class:`~repro.env.sensors.LidarScan`, the state read with a
:class:`~repro.env.physics.DroneState`, the depth sensor with a float and
the camera with a :class:`CameraFrame`.  The synchronizer is the one
place that serializes a reading into its response packet.  The server
registers only the calls the program makes.  The frame advance answers
with the last frame's :class:`~repro.env.simulator.TrajectorySample`, the
collision count and the goal flag; the synchronizer's CSV row and stop
test read that answer, so a lockstep step makes one environment RPC for
the advance plus one per sensor request or actuation command the SoC
issued.
"""

from __future__ import annotations

import json
from typing import Any, Callable, NamedTuple

from repro.env.camera import encode_image_u8, zero_image_u8
from repro.env.flightctl import VelocityTarget
from repro.env.simulator import EnvSimulator, TrajectorySample
from repro.errors import SimulationError

#: Argument types whose JSON round trip is the identity.
_JSON_SCALARS = frozenset({int, float, bool, str, type(None)})


class CameraFrame(NamedTuple):
    """The camera RPC's answer, its fields in CAMERA_RESP wire order: the
    camera's shape, the sim time, the pose's ground-truth metadata (see
    :meth:`EnvSimulator.course_state`) and the encoded uint8 pixels."""

    height: int
    width: int
    timestamp: float
    heading_error: float
    lateral_offset: float
    half_width: float
    pixels: bytes


class RpcServer:
    """Dispatches calls by method name to an :class:`EnvSimulator`.

    Arguments must be JSON-serializable (:meth:`call` checks them);
    results are returned as in-process values.  Images go as uint8 byte
    payloads alongside their shape, as they travel over the wire in the
    real deployment.
    """

    def __init__(self, simulator: EnvSimulator):
        self.simulator = simulator
        # The simulator's own methods answer the commands and sensor reads.
        # They are bound here, once; the advance's handler looks
        # ``continue_for_frames`` up on every call, so a wrapper put on
        # ``EnvSimulator`` later (the benchmark tracer's ``env.dynamics``
        # row) still sees each advance.
        self._handlers: dict[str, Callable[..., Any]] = {
            "takeoff": simulator.takeoff,
            "continue_for_frames": self._continue_for_frames,
            "get_camera_image": self._get_camera_image,
            "get_imu": simulator.get_imu,
            "get_depth": simulator.get_depth,
            "get_lidar": simulator.get_lidar,
            "get_state": simulator.get_state,
            "send_velocity_target": self._send_velocity_target,
        }

    @property
    def methods(self) -> list[str]:
        return sorted(self._handlers)

    def call(self, method: str, *args: Any) -> Any:
        """Check the arguments and dispatch one RPC."""
        try:
            handler = self._handlers[method]
        except KeyError:
            raise SimulationError(f"unknown RPC method {method!r}") from None
        if args and not _JSON_SCALARS.issuperset(map(type, args)):
            # Round-trip the arguments through JSON: anything that cannot
            # be marshalled must fail here, at the boundary, not deep
            # inside.  No arguments or scalars only round-trip as the
            # identity and skip it.
            try:
                args = tuple(json.loads(json.dumps(args)))
            except TypeError as exc:
                raise SimulationError(
                    f"RPC arguments for {method!r} are not serializable: {exc}"
                ) from exc
        return handler(*args)

    def camera_frame(self, pixels: bytes) -> CameraFrame:
        """The camera RPC's answer around the encoded frame ``pixels``:
        the camera's shape, the current sim time and the ground-truth
        metadata of the current pose."""
        sim = self.simulator
        params = sim.camera.params
        _s, d, heading_error = sim.course_state()
        return CameraFrame(
            params.height,
            params.width,
            sim.sim_time,
            heading_error,
            d,
            sim.world.half_width,
            pixels,
        )

    # -- handlers ------------------------------------------------------
    def _continue_for_frames(self, frames: int) -> tuple[TrajectorySample, int, bool]:
        sim = self.simulator
        sim.continue_for_frames(int(frames))
        return sim.trajectory[-1], sim.collision_count, sim.mission_complete

    def _get_camera_image(self) -> CameraFrame:
        """One camera frame and its ground-truth metadata.

        When no perception reads the pixels (``EnvSimulator.pixels`` is
        false) the frame is :func:`~repro.env.camera.zero_image_u8` of the
        camera's shape: nothing is rendered or encoded, and the payload
        length, hence the wire format, is unchanged.
        """
        sim = self.simulator
        if sim.pixels:
            pixels = encode_image_u8(sim.get_camera_image())
        else:
            pixels = zero_image_u8(sim.camera.params)
        return self.camera_frame(pixels)

    def _send_velocity_target(
        self, v_forward: float, v_lateral: float, yaw_rate: float, altitude: float
    ) -> bool:
        self.simulator.send_velocity_target(
            VelocityTarget(
                v_forward=float(v_forward),
                v_lateral=float(v_lateral),
                yaw_rate=float(yaw_rate),
                altitude=float(altitude),
            )
        )
        return True
