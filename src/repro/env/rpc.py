"""RPC facade over the environment simulator.

AirSim exposes "a remote-procedure-call (RPC) API for sensor readings and
actuation, as well as simulator commands" (Section 3.1), and the RoSE
synchronizer "communicat[es] with the AirSim server by using its RPC
interface" (Section 3.4.1).  This module reproduces that boundary: the
synchronizer never touches :class:`~repro.env.simulator.EnvSimulator`
directly; it holds an :class:`RpcClient` whose calls go by method name
through an :class:`RpcServer` that dispatches to registered handlers.

The server checks at the boundary that every argument is
JSON-serializable, as the real system requires.  Results are plain
in-process values, not marshalled (the camera's ``bytes`` payload was
never JSON either).  The server registers only the calls the program
makes.  The frame advance answers with the last frame's
:class:`~repro.env.simulator.TrajectorySample`, the collision count and
the goal flag; the synchronizer's CSV row and stop test read that
answer, so a lockstep step makes one environment RPC for the advance
plus one per sensor request or actuation command the SoC issued.
"""

from __future__ import annotations

import json
from typing import Any, Callable

from repro.env.camera import encode_image_u8, zero_image_u8
from repro.env.flightctl import VelocityTarget
from repro.env.simulator import EnvSimulator, TrajectorySample
from repro.errors import SimulationError

#: Argument types whose JSON round trip is the identity.
_JSON_SCALARS = frozenset({int, float, bool, str, type(None)})


class RpcServer:
    """Dispatches calls by method name to an :class:`EnvSimulator`.

    Arguments must be JSON-serializable (:meth:`call` checks them);
    results are returned as in-process values.  Images go as uint8 byte
    payloads alongside their shape, as they travel over the wire in the
    real deployment.
    """

    def __init__(self, simulator: EnvSimulator):
        self.simulator = simulator
        self._handlers: dict[str, Callable[..., Any]] = {
            "takeoff": self._takeoff,
            "continue_for_frames": self._continue_for_frames,
            "get_camera_image": self._get_camera_image,
            "get_imu": self._get_imu,
            "get_depth": self._get_depth,
            "get_lidar": self._get_lidar,
            "get_state": self._get_state,
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

    def camera_payload(self, pixels: bytes) -> dict[str, Any]:
        """The camera RPC's response around the encoded frame ``pixels``:
        the camera's shape, the current sim time and the ground-truth
        metadata of the current pose."""
        sim = self.simulator
        params = sim.camera.params
        _s, d, heading_error = sim.course_state()
        return {
            "height": params.height,
            "width": params.width,
            "pixels": pixels,
            "timestamp": sim.sim_time,
            # Ground-truth image metadata (see EnvSimulator.course_state).
            "heading_error": heading_error,
            "lateral_offset": d,
            "half_width": sim.world.half_width,
        }

    # -- handlers ------------------------------------------------------
    def _takeoff(self) -> bool:
        self.simulator.takeoff()
        return True

    def _continue_for_frames(self, frames: int) -> tuple[TrajectorySample, int, bool]:
        sim = self.simulator
        sim.continue_for_frames(int(frames))
        return sim.trajectory[-1], sim.collision_count, sim.mission_complete

    def _get_camera_image(self) -> dict[str, Any]:
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
        return self.camera_payload(pixels)

    def _get_imu(self) -> dict[str, float]:
        reading = self.simulator.get_imu()
        return {
            "accel_x": reading.accel_x,
            "accel_y": reading.accel_y,
            "accel_z": reading.accel_z,
            "gyro_z": reading.gyro_z,
            "timestamp": reading.timestamp,
        }

    def _get_depth(self) -> float:
        return self.simulator.get_depth()

    def _get_lidar(self) -> dict[str, Any]:
        scan = self.simulator.get_lidar()
        return {
            "beams": scan.beams,
            "fov_rad": scan.fov_rad,
            "timestamp": scan.timestamp,
            "ranges": scan.ranges.tobytes(),
        }

    def _get_state(self) -> dict[str, float]:
        st = self.simulator.get_state()
        return {
            "x": st.x,
            "y": st.y,
            "z": st.z,
            "yaw": st.yaw,
            "u": st.u,
            "v": st.v,
            "r": st.r,
            "speed": st.speed,
        }

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


class RpcClient:
    """Typed client wrapper the synchronizer holds.

    A client can wrap any server object exposing ``call`` — in tests a
    recording fake takes the server's place.
    """

    def __init__(self, server: RpcServer):
        self._server = server

    def call(self, method: str, *args: Any) -> Any:
        return self._server.call(method, *args)

    # Typed conveniences -------------------------------------------------
    def takeoff(self) -> None:
        self.call("takeoff")

    def continue_for_frames(self, frames: int) -> tuple[TrajectorySample, int, bool]:
        """Advance ``frames`` frames; returns the last frame's trajectory
        sample, the collision count and the goal flag."""
        return self.call("continue_for_frames", frames)

    def get_camera_image(self) -> dict[str, Any]:
        return self.call("get_camera_image")

    def get_imu(self) -> dict[str, float]:
        return self.call("get_imu")

    def get_depth(self) -> float:
        return float(self.call("get_depth"))

    def get_lidar(self) -> dict[str, Any]:
        return self.call("get_lidar")

    def get_state(self) -> dict[str, float]:
        return self.call("get_state")

    def send_velocity_target(
        self, v_forward: float, v_lateral: float, yaw_rate: float, altitude: float
    ) -> None:
        self.call("send_velocity_target", v_forward, v_lateral, yaw_rate, altitude)
