"""The batched mission engine: N lockstep missions per process.

Each lane of a batch is a full, unmodified :class:`CoSimulation` — SoC,
bridge, transport, app, observability and synchronizer all run the exact
serial code per lane.  What the engine vectorizes is the environment
side, which dominates serial wall time: per-frame flight control,
dynamics, course projection and camera rasterization execute once per
*batch* over ``(K, ...)`` arrays (:mod:`repro.batch.kernels`) instead of
once per mission.

One engine round advances every active lane by one synchronization step,
in the order of RoSÉ's Algorithm 1 (packets are served before the
environment advances):

1. **Pre-render** — rasterize the frames the camera requests of *reader*
   lanes (lanes whose perception reads pixels) are about to be served:
   one batched pass per request rank over the readers' pre-advance
   poses, each frame finished by its own lane's camera, so texture noise
   is drawn in serial order.  Lanes with a
   :class:`~repro.batch.infer.BatchedCnnPerception` are primed here with
   one whole-batch DNN forward pass.  A round with no reader request
   renders nothing.
2. **Dispatch** — each lane's synchronizer serves its pending SoC
   packets (:meth:`Synchronizer.dispatch_pending`) through its own RPC
   server: readers' camera requests take the pre-rendered frames, every
   other request runs the serial handler against pre-advance state, and
   velocity targets reach each lane's flight controller.
3. **Advance** — the batched kernels run ``frames_per_sync`` frames over
   the gathered active working set, with the targets dispatch applied,
   then scatter back and write each lane's scalar state into its
   simulator objects.
4. **Step** — each lane's synchronizer executes its unmodified
   ``step()``: nothing is left to dispatch, the environment-advance RPC
   consumes the token for work already done, and the SoC runs its cycle
   window.  Finished lanes (mission complete, watchdog, or
   ``max_sim_time``) end through :meth:`CoSimulation.finish`, as
   :meth:`CoSimulation.run` does.

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
from repro.env.camera import encode_image_u8
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
    #: Encoded frames pre-rendered for this round's camera requests of a
    #: reader lane, FIFO for dispatch.
    frames: list[bytes] = field(default_factory=list)
    #: Set before the lane's synchronizer steps; consumed by the
    #: environment-advance RPC shim (the batched advance did the work).
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
        """Reroute the RPC handlers whose work the batch does.

        The environment advance is every lane's; it answers as the serial
        handler does, from the lane's environment, whose last sample the
        round appended from the values it wrote back to the state.  The
        camera is a reader lane's only (a non-reader's handler renders
        nothing).  Handler-level overrides keep :meth:`RpcServer.call`
        untouched, so argument checks and call counts stay serial-exact.
        """
        server = lane.cosim._rpc_server
        handlers = server._handlers

        def get_camera_image() -> dict[str, Any]:
            return server.camera_payload(lane.frames.pop(0))

        def continue_for_frames(frames: int) -> tuple[TrajectorySample, int, bool]:
            if not lane.advance_token or int(frames) != self.frames_per_sync:
                raise BatchIneligible(
                    f"unexpected environment advance of {frames} frame(s)"
                )
            lane.advance_token = False
            env = lane.cosim.env
            return env.trajectory[-1], env.collision_count, env.mission_complete

        if lane.cosim.env.pixels:
            handlers["get_camera_image"] = get_camera_image
        handlers["continue_for_frames"] = continue_for_frames

    # ------------------------------------------------------------------
    def run(self) -> list[MissionResult]:
        """Fly every lane to completion; results in lane order."""
        for lane in self.lanes:
            lane.cosim.start()
        while True:
            active = [lane for lane in self.lanes if lane.result is None]
            if not active:
                break
            self._round(active)
        return [lane.result for lane in self.lanes if lane.result is not None]

    # ------------------------------------------------------------------
    def _round(self, active: list[_Lane]) -> None:
        self._pre_render(active)
        for lane in active:
            lane.cosim.synchronizer.dispatch_pending()
        self._advance(active)
        self._step_lanes(active)

    # -- step 1: batched camera pre-render of the reader lanes ---------
    def _pre_render(self, active: list[_Lane]) -> None:
        requests: list[tuple[_Lane, int]] = []
        for lane in active:
            if lane.cosim.env.pixels:
                pending = lane.cosim.synchronizer._pending_rtl
                n = sum(packet.ptype == PacketType.CAMERA_REQ for packet in pending)
                if n:
                    requests.append((lane, n))
                    if isinstance(lane.perception, BatchedCnnPerception):
                        lane.perception.begin_round()
        cnn_items: list[tuple[BatchedCnnPerception, bytes, int, int]] = []
        for rank in range(max((n for _lane, n in requests), default=0)):
            readers = [lane for lane, n in requests if n > rank]
            idx = np.array([lane.index for lane in readers])
            images = kernels.render_lanes(
                self.camera, self.world, self.dyn.x[idx], self.dyn.y[idx], self.dyn.yaw[idx]
            )
            for lane, image in zip(readers, images):
                camera = lane.cosim.env.camera
                pixels = encode_image_u8(camera.finish_frame(image))
                lane.frames.append(pixels)
                if isinstance(lane.perception, BatchedCnnPerception):
                    params = camera.params
                    cnn_items.append((lane.perception, pixels, params.height, params.width))
        if cnn_items:
            BatchedCnnPerception.prime_batch(cnn_items)

    # -- step 3: batched frame advance --------------------------------
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
        else:
            idx = np.array([lane.index for lane in active])
            w = self.dyn.gather(idx)
            pid_f = self.pid_forward.gather(idx)
            pid_l = self.pid_lateral.gather(idx)
            pid_v = self.pid_vertical.gather(idx)
            pid_y = self.pid_yaw.gather(idx)
        # The targets this round's dispatch applied, one column each.
        tgt_f, tgt_l, tgt_yr, tgt_alt = np.array(
            [
                (t.v_forward, t.v_lateral, t.yaw_rate, t.altitude)
                for t in (lane.cosim.env.controller.target for lane in active)
            ]
        ).T
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

    # -- step 4: per-lane synchronizer step -----------------------------
    def _step_lanes(self, active: list[_Lane]) -> None:
        for lane in active:
            lane.advance_token = True
            cosim = lane.cosim
            synchronizer = cosim.synchronizer
            failure: str | None = None
            try:
                synchronizer.step()
            except WatchdogError:
                failure = "watchdog"
            except TransportError:
                failure = "link_timeout"
            if failure is None and lane.advance_token:
                raise BatchIneligible("synchronizer skipped the environment advance")
            if (
                failure is not None
                or synchronizer.mission_complete
                or synchronizer.sim_time >= cosim.config.max_sim_time
            ):
                lane.result = cosim.finish(failure)


# ----------------------------------------------------------------------
# Public entry point
# ----------------------------------------------------------------------
def run_batch(
    configs: Sequence[CoSimConfig],
    perceptions: Sequence[Perception | None] | None = None,
) -> list[MissionResult]:
    """Fly one compatible group in lockstep; results in input order.

    :class:`BatchIneligible` reaches the caller, whether the pre-run
    screen refuses a config or a lane's synchronizer does not ask for
    exactly the one environment advance per round that the batch makes.
    :class:`~repro.sweep.runner.SweepRunner` then runs the chunk
    serially and does not count it as batched.
    """
    return BatchEngine(configs, perceptions).run()
