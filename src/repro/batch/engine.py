"""The batched mission engine: N lockstep missions per process.

Each lane of a batch is a full, unmodified :class:`CoSimulation` — SoC,
bridge, transport, app, observability and synchronizer all run the exact
serial code per lane.  What the engine vectorizes is the environment
side, which dominates serial wall time: per-frame flight control,
dynamics, course projection and camera rasterization execute once per
*batch* over ``(K, ...)`` arrays (:mod:`repro.batch.kernels`) instead of
once per mission.

One engine round advances every active lane by one synchronization step:

1. **Prescan** — peek at each lane's pending SoC packets.  Count camera
   requests, note the last velocity target; any packet the kernels do
   not model aborts the batch (:class:`BatchIneligible`).
2. **Pre-render** — rasterize the camera frames that requesting lanes
   whose perception reads pixels are about to be served, in one batched
   pass from pre-advance state; the other requesting lanes get the zero
   frame the serial RPC server sends them, and no pass runs when no
   requesting lane reads pixels.  Queue the finished RPC response dicts.
   Texture noise comes from each lane's own camera RNG in serial draw
   order.  Lanes with a
   :class:`~repro.batch.infer.BatchedCnnPerception` are primed here with
   one whole-batch DNN forward pass.
3. **Pre-apply targets** — the prescanned velocity targets update the
   batch controller arrays now, because serially they are dispatched
   *before* the frame advance.  (The per-lane controller objects are
   updated by the real dispatch in phase 5, keeping RPC/packet counts
   serial-identical.)
4. **Advance** — the batched kernels run ``frames_per_sync`` frames over
   the gathered active working set, then scatter back and write each
   lane's scalar state into its simulator objects.
5. **Step** — each lane's synchronizer executes its unmodified
   ``step()``: dispatch consumes the queued camera responses, the
   environment-advance RPC consumes the token for work already done, and
   the SoC runs its cycle window.  Finished lanes (mission complete,
   watchdog, or ``max_sim_time``) shut down and collect exactly as
   :meth:`CoSimulation.run` would.

Ragged termination is the active-lane set shrinking round by round.

Bit-exactness: lanes using the default behavioural perception produce
``MissionResult`` payloads bit-identical to :func:`run_mission` — same
trajectory floats, same packet/byte counters, same signatures — so
batched and serial runs share sweep-cache entries.  The single tolerance
site (batched CNN GEMM) is documented in :mod:`repro.batch.infer`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from repro.app.perception import Perception
from repro.batch import kernels
from repro.batch.eligibility import BatchIneligible, batch_eligible, batch_group_key
from repro.batch.infer import BatchedCnnPerception
from repro.core.config import CoSimConfig
from repro.core.cosim import CoSimulation, MissionResult
from repro.core.packets import PacketType
from repro.core.synchronizer import StepRecord
from repro.env.camera import encode_image_u8, zero_image_u8
from repro.env.physics import CollisionEvent
from repro.env.simulator import TrajectorySample
from repro.errors import TransportError, WatchdogError


@dataclass
class _Lane:
    """One mission of the batch, wrapping its serial co-simulation."""

    index: int
    cosim: CoSimulation
    perception: Perception | None
    result: MissionResult | None = None
    #: Camera responses pre-rendered for this round, FIFO for dispatch.
    camera_queue: list[dict[str, Any]] = field(default_factory=list)
    pending_camera_requests: int = 0
    #: Set before the lane's synchronizer steps; consumed by the
    #: environment-advance RPC shim (phase 4 already did the work).
    advance_token: bool = False


class BatchEngine:
    """Lockstep execution of one compatible group of missions."""

    def __init__(
        self,
        configs: Sequence[CoSimConfig],
        perceptions: Sequence[Perception | None] | None = None,
    ):
        if not configs:
            raise ValueError("BatchEngine needs at least one mission")
        if perceptions is None:
            perceptions = [None] * len(configs)
        if len(perceptions) != len(configs):
            raise ValueError("perceptions must parallel configs")
        keys = {batch_group_key(c) for c in configs}
        if len(keys) != 1:
            raise BatchIneligible("configs span multiple batch groups")
        for config in configs:
            ok, reason = batch_eligible(config)
            if not ok:
                raise BatchIneligible(reason)

        self.lanes = [
            _Lane(i, CoSimulation(config, perception=perception), perception)
            for i, (config, perception) in enumerate(zip(configs, perceptions))
        ]
        base_env = self.lanes[0].cosim.env
        self.world = base_env.world
        self.camera = base_env.camera  # pose-independent projection constants
        self.params = base_env.dynamics.params
        self.frame_dt = base_env.config.frame_dt
        self.frames_per_sync = configs[0].sync.frames_per_sync

        k = len(self.lanes)
        gains = base_env.controller.gains
        self.dyn = kernels.DynamicsLanes.zeros(k)
        self.pid_forward = kernels.PidLanes.zeros(gains.forward, k)
        self.pid_lateral = kernels.PidLanes.zeros(gains.lateral, k)
        self.pid_vertical = kernels.PidLanes.zeros(gains.vertical, k)
        self.pid_yaw = kernels.PidLanes.zeros(gains.yaw_rate, k)
        self.target_forward = np.zeros(k)
        self.target_lateral = np.zeros(k)
        self.target_yaw_rate = np.zeros(k)
        self.target_altitude = np.zeros(k)
        #: Dynamics clock / frame counter — uniform across lanes because
        #: every active lane advances every round (lockstep); finished
        #: lanes freeze at the values last written back.
        self.time = 0.0
        self.frame = 0

        for lane in self.lanes:
            st = lane.cosim.env.dynamics.state
            i = lane.index
            self.dyn.x[i] = st.x
            self.dyn.y[i] = st.y
            self.dyn.z[i] = st.z
            self.dyn.yaw[i] = st.yaw
            self._install_shims(lane)

    # ------------------------------------------------------------------
    def _install_shims(self, lane: _Lane) -> None:
        """Reroute the two env-advancing RPC handlers through the batch.

        Handler-level overrides keep :meth:`RpcServer.call` untouched, so
        marshalling and call counts stay serial-exact.
        """
        server = lane.cosim._rpc_server
        handlers = server._handlers

        def get_camera_image() -> dict[str, Any]:
            if not lane.camera_queue:
                raise BatchIneligible("camera request arrived without a prescan")
            return lane.camera_queue.pop(0)

        def continue_for_frames(frames: int) -> StepRecord:
            if not lane.advance_token or int(frames) != self.frames_per_sync:
                raise BatchIneligible(
                    f"unexpected environment advance of {frames} frame(s)"
                )
            lane.advance_token = False
            return server.step_record()

        handlers["get_camera_image"] = get_camera_image
        handlers["continue_for_frames"] = continue_for_frames

    # ------------------------------------------------------------------
    def run(self) -> list[MissionResult]:
        """Fly every lane to completion; results in lane order."""
        for lane in self.lanes:
            lane.cosim.synchronizer.configure()
            lane.cosim.rpc.takeoff()
            target = lane.cosim.env.controller.target
            i = lane.index
            self.target_forward[i] = target.v_forward
            self.target_lateral[i] = target.v_lateral
            self.target_yaw_rate[i] = target.yaw_rate
            self.target_altitude[i] = target.altitude
        while True:
            active = [lane for lane in self.lanes if lane.result is None]
            if not active:
                break
            self._round(active)
        return [lane.result for lane in self.lanes if lane.result is not None]

    # ------------------------------------------------------------------
    def _round(self, active: list[_Lane]) -> None:
        max_requests = self._prescan(active)
        if max_requests:
            self._pre_render(active, max_requests)
        self._advance(active)
        self._step_lanes(active)

    # -- phase 1: prescan ----------------------------------------------
    def _prescan(self, active: list[_Lane]) -> int:
        max_requests = 0
        for lane in active:
            requests = 0
            target = None
            for packet in lane.cosim.synchronizer._pending_rtl:
                if packet.ptype == PacketType.CAMERA_REQ:
                    requests += 1
                elif packet.ptype == PacketType.TARGET_CMD:
                    target = packet.values
                else:
                    raise BatchIneligible(
                        f"unvectorized packet from SoC: {packet.ptype.name}"
                    )
            lane.pending_camera_requests = requests
            max_requests = max(max_requests, requests)
            if target is not None:
                # Serially this target is dispatched before the frame
                # advance; mirror that on the batch arrays.  (JSON
                # marshalling round-trips floats exactly.)
                i = lane.index
                self.target_forward[i] = float(target[0])
                self.target_lateral[i] = float(target[1])
                self.target_yaw_rate[i] = float(target[2])
                self.target_altitude[i] = float(target[3])
        return max_requests

    # -- phase 2: batched camera pre-render ----------------------------
    def _pre_render(self, active: list[_Lane], max_requests: int) -> None:
        requesting = [lane for lane in active if lane.pending_camera_requests > 0]
        metadata: dict[int, tuple[float, float, float]] = {}
        cnn_items: list[tuple[BatchedCnnPerception, bytes, int, int]] = []
        for lane in requesting:
            # Pre-advance ground-truth metadata, from the lane env's
            # course-state cache (written back at the end of the
            # previous round's advance).
            env = lane.cosim.env
            _s, d, heading_error = env.course_state()
            metadata[lane.index] = (env.sim_time, heading_error, d)
            if isinstance(lane.perception, BatchedCnnPerception):
                lane.perception.begin_round()
        for j in range(max_requests):
            subset = [lane for lane in requesting if lane.pending_camera_requests > j]
            rendered = self._render(subset)
            for lane in subset:
                params = lane.cosim.env.camera.params
                height, width = params.height, params.width
                pixels = rendered.get(lane.index)
                if pixels is None:  # reads no pixels: the serial RPC's zero frame
                    pixels = zero_image_u8(params)
                timestamp, heading_error, d = metadata[lane.index]
                lane.camera_queue.append(
                    {
                        "height": height,
                        "width": width,
                        "pixels": pixels,
                        "timestamp": timestamp,
                        "heading_error": heading_error,
                        "lateral_offset": d,
                        "half_width": self.world.half_width,
                    }
                )
                if isinstance(lane.perception, BatchedCnnPerception):
                    cnn_items.append((lane.perception, pixels, height, width))
        if cnn_items:
            BatchedCnnPerception.prime_batch(cnn_items)

    def _render(self, lanes: list[_Lane]) -> dict[int, bytes]:
        """The encoded frame of every lane whose perception reads pixels.

        One render call covers those lanes' pre-advance poses, and each
        frame's noise comes from its own lane's camera; with no reader
        among ``lanes`` nothing is rendered.
        """
        readers = [lane for lane in lanes if lane.cosim.env.pixels]
        if not readers:
            return {}
        idx = np.array([lane.index for lane in readers])
        images = kernels.render_lanes(
            self.camera, self.world, self.dyn.x[idx], self.dyn.y[idx], self.dyn.yaw[idx]
        )
        return {
            lane.index: encode_image_u8(lane.cosim.env.camera.finish_frame(image))
            for lane, image in zip(readers, images)
        }

    # -- phase 4: batched frame advance --------------------------------
    def _advance(self, active: list[_Lane]) -> None:
        k = len(active)
        p = self.params
        dt = self.frame_dt
        # With every lane active (the common case until lanes start
        # finishing) the gather would be the identity permutation, so the
        # working set IS the lane state — kernels mutate it in place and
        # the scatter is skipped too.
        all_active = k == len(self.lanes)
        if all_active:
            idx = None
            w = self.dyn
            pid_f = self.pid_forward
            pid_l = self.pid_lateral
            pid_v = self.pid_vertical
            pid_y = self.pid_yaw
            tgt_f = self.target_forward
            tgt_l = self.target_lateral
            tgt_yr = self.target_yaw_rate
            tgt_alt = self.target_altitude
        else:
            idx = np.array([lane.index for lane in active])
            w = self.dyn.gather(idx)
            pid_f = self.pid_forward.gather(idx)
            pid_l = self.pid_lateral.gather(idx)
            pid_v = self.pid_vertical.gather(idx)
            pid_y = self.pid_yaw.gather(idx)
            tgt_f = self.target_forward[idx]
            tgt_l = self.target_lateral[idx]
            tgt_yr = self.target_yaw_rate[idx]
            tgt_alt = self.target_altitude[idx]
        goal = self.world.goal_arclength
        normals = self.world.centerline.normals

        for _ in range(self.frames_per_sync):
            cmd_f = pid_f.update(tgt_f - w.u, dt)
            cmd_l = pid_l.update(tgt_l - w.v, dt)
            cmd_v = pid_v.update(kernels.vertical_errors(tgt_alt, w.z, w.vz), dt)
            cmd_y = pid_y.update(tgt_yr - w.r, dt)
            kernels.applied_commands(w, self.time, cmd_f, cmd_l, cmd_v, cmd_y, dt, p)
            kernels.integrate_velocities(w, dt, p)
            speed = np.array(
                [
                    math.hypot(a, b)  # no bit-identical vector hypot
                    for a, b in zip(w.u.tolist(), w.v.tolist())
                ]
            )
            kernels.limit_speed(w, speed, p)
            new_x, new_y = kernels.integrate_pose(w, dt, p)

            wall_d = kernels.wall_distances(new_x, new_y, self.world)
            s_new, seg_idx, diff = kernels.project_lanes(
                np.column_stack([new_x, new_y]), self.world
            )
            d_new = np.empty(k)
            for m in range(k):  # per lane: the serial d is a 2-vector BLAS dot
                d_new[m] = float(diff[m] @ normals[seg_idx[m]])
            colliding = (wall_d <= p.collision_radius) | (
                np.abs(d_new) >= self.world.half_width
            )

            if colliding.any():
                for m in np.nonzero(colliding)[0]:
                    lane = active[m]
                    if not self.time < w.recovery_until[m]:
                        # QuadrotorDynamics._handle_collision, per lane.
                        lane.cosim.env.dynamics.collisions.append(
                            CollisionEvent(
                                time=self.time,
                                x=float(new_x[m]),
                                y=float(new_y[m]),
                                speed=math.hypot(w.u[m], w.v[m]),
                            )
                        )
                        w.u[m] *= p.collision_speed_retention
                        w.v[m] = 0.0
                        w.r[m] = 0.0
                        w.ap_forward[m] = 0.0
                        w.ap_lateral[m] = 0.0
                        w.ap_vertical[m] = 0.0
                        w.ap_yaw[m] = 0.0
                        w.recovery_until[m] = self.time + p.recovery_time
                    # Held position: re-project it for this frame's sample.
                    s_held, d_held = self.world.course_coordinates(
                        np.array([w.x[m], w.y[m]])
                    )
                    s_new[m] = s_held
                    d_new[m] = d_held
                committed = ~colliding
                w.x = np.where(committed, new_x, w.x)
                w.y = np.where(committed, new_y, w.y)
            else:
                w.x = new_x
                w.y = new_y

            self.time += dt
            self.frame += 1
            sample_time = self.frame * self.frame_dt
            xs, ys, zs, yaws = w.x.tolist(), w.y.tolist(), w.z.tolist(), w.yaw.tolist()
            us, vs = w.u.tolist(), w.v.tolist()
            ss, ds = s_new.tolist(), d_new.tolist()
            for m, lane in enumerate(active):
                env = lane.cosim.env
                env.trajectory.append(
                    TrajectorySample(
                        time=sample_time,
                        x=xs[m],
                        y=ys[m],
                        z=zs[m],
                        yaw=yaws[m],
                        speed=math.hypot(us[m], vs[m]),
                        s=ss[m],
                        d=ds[m],
                    )
                )
                if env._goal_time is None and ss[m] >= goal:
                    env._goal_time = sample_time

        if not all_active:
            self.dyn.scatter(idx, w)
            self.pid_forward.scatter(idx, pid_f)
            self.pid_lateral.scatter(idx, pid_l)
            self.pid_vertical.scatter(idx, pid_v)
            self.pid_yaw.scatter(idx, pid_y)
        for m, lane in enumerate(active):
            env = lane.cosim.env
            dynamics = env.dynamics
            st = dynamics.state
            st.x = float(w.x[m])
            st.y = float(w.y[m])
            st.z = float(w.z[m])
            st.yaw = float(w.yaw[m])
            st.u = float(w.u[m])
            st.v = float(w.v[m])
            st.vz = float(w.vz[m])
            st.r = float(w.r[m])
            applied = dynamics._applied
            applied.a_forward = float(w.ap_forward[m])
            applied.a_lateral = float(w.ap_lateral[m])
            applied.a_vertical = float(w.ap_vertical[m])
            applied.yaw_accel = float(w.ap_yaw[m])
            dynamics._recovery_until = float(w.recovery_until[m])
            dynamics.time = self.time
            env.frame = self.frame
            # The last frame's (serial-exact) course coordinates.
            env.set_course_coordinates(ss[m], ds[m])

    # -- phase 5: per-lane synchronizer step ----------------------------
    def _step_lanes(self, active: list[_Lane]) -> None:
        for lane in active:
            lane.advance_token = True
            synchronizer = lane.cosim.synchronizer
            failure: str | None = None
            try:
                synchronizer.step()
            except WatchdogError:
                failure = "watchdog"
            except TransportError:
                failure = "link_timeout"
            if failure is None:
                if lane.camera_queue:
                    raise BatchIneligible("pre-rendered camera frames went unconsumed")
                if lane.advance_token:
                    raise BatchIneligible("synchronizer skipped the environment advance")
            if failure is not None:
                self._finish(lane, failure)
            elif synchronizer.mission_complete:
                self._finish(lane, None)
            elif synchronizer.sim_time >= lane.cosim.config.max_sim_time:
                self._finish(lane, None)

    def _finish(self, lane: _Lane, failure: str | None) -> None:
        """Shut down and collect one lane, exactly as ``CoSimulation.run``."""
        try:
            lane.cosim.synchronizer.shutdown()
        except TransportError:
            failure = failure or "link_timeout"
        lane.result = lane.cosim._collect(failure)


# ----------------------------------------------------------------------
# Public entry point
# ----------------------------------------------------------------------
def run_batch(
    configs: Sequence[CoSimConfig],
    perceptions: Sequence[Perception | None] | None = None,
) -> list[MissionResult]:
    """Fly one compatible group in lockstep; results in input order.

    :class:`BatchIneligible` reaches the caller, whether the pre-run
    screen refuses a config or the run meets something the kernels do
    not model (an unexpected packet on the link).
    :class:`~repro.sweep.runner.SweepRunner` then runs the chunk
    serially and does not count it as batched.
    """
    return BatchEngine(configs, perceptions).run()
