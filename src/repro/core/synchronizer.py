"""Algorithm 1: the lockstep synchronization loop.

The synchronizer is the process in the middle of Figure 5.  Each
synchronization step it

1. polls FireSim for packets the SoC emitted during the previous period
   (and AirSim for pushed data, none in this pull-style deployment),
2. decodes SoC I/O packets into environment RPC calls (sensor requests,
   actuation commands) and transmits the serialized responses back toward
   the bridge,
3. allocates tokens: grants FireSim its cycle budget and grants the
   environment its frame budget,
4. polls both simulators until the step completes, then advances
   simulation time by one synchronization period.

Consequence of this loop (measured in Section 5.5): data crosses between
the simulators only at step boundaries, so a sensor request issued
mid-period is answered no earlier than the next boundary — coarse
synchronization adds artificial latency to the modeled I/O.

Step 3's tokens travel as SYNC_GRANT and SYNC_DONE frames wherever
frames exist or can be faulted: over TCP, behind a fault injector (an
empty fault plan included), and to a remote host, where a lost frame is
recovered by regrants and bounded by the watchdog.  On a lossless
in-process link to an in-process host the frames would tell the
synchronizer nothing it does not know, so step 3 grants the host by
method call (:meth:`~repro.soc.firesim.FireSimHost.grant`) and step 4
reads the completion back from the host; both frames are still charged
to the link's counters at their wire size, so every packet, byte and
sync count is the same on either path.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, TypedDict

from repro.core.config import SyncConfig
from repro.core.csvlog import SyncLogger, SyncLogRow
from repro.core.faults import FaultInjector
from repro.core.packets import (
    DATA_TYPES,
    DataPacket,
    PacketType,
    camera_response,
    depth_response,
    frame_size,
    imu_response,
    lidar_response,
    state_response,
    sync_grant,
    sync_set_steps,
    sync_shutdown,
)
from repro.core.invariants import InvariantChecker
from repro.core.timing import StageTimer, wall_clock
from repro.core.trace import Tracer
from repro.core.transport import InProcessTransport, Transport
from repro.env.rpc import RpcClient
from repro.errors import SyncError, WatchdogError

if TYPE_CHECKING:  # pragma: no cover - repro.soc imports repro.core
    from repro.soc.firesim import FireSimHost

#: Wire sizes of the two frames a step granted by call charges to the link.
_GRANT_FRAME = frame_size(PacketType.SYNC_GRANT)
_DONE_FRAME = frame_size(PacketType.SYNC_DONE)

# Member aliases for the per-packet tests (see packets.DATA_TYPES).
_SYNC_DONE = PacketType.SYNC_DONE
_CAMERA_REQ = PacketType.CAMERA_REQ
_IMU_REQ = PacketType.IMU_REQ
_DEPTH_REQ = PacketType.DEPTH_REQ
_LIDAR_REQ = PacketType.LIDAR_REQ
_STATE_REQ = PacketType.STATE_REQ
_TARGET_CMD = PacketType.TARGET_CMD
#: ``SyncStats.link_packets`` keys of the request counts each CSV row logs.
_CAMERA_REQUESTS = ("from_rtl", _CAMERA_REQ)
_IMU_REQUESTS = ("from_rtl", _IMU_REQ)
_DEPTH_REQUESTS = ("from_rtl", _DEPTH_REQ)


class StepRecord(TypedDict):
    """The environment's committed state after one frame advance, as the
    ``continue_for_frames`` RPC returns it (``RpcServer.step_record``)."""

    frame: int
    x: float
    y: float
    z: float
    yaw: float
    speed: float
    s: float  # course arclength
    d: float  # signed lateral offset
    collisions: int
    mission_complete: bool


def _dispatched(ptype: PacketType) -> property:
    """A :class:`SyncStats` count: SoC packets of ``ptype`` dispatched."""
    key = ("from_rtl", ptype)
    return property(lambda stats: stats.link_packets.get(key, 0))


@dataclass
class SyncStats:
    """Counters across one mission, kept as plain fields.

    Each event is counted once: a packet in :attr:`link_packets` (the
    per-direction and per-type packet counts are read from it), a wire
    fault by the fault injector, whose totals the mission runner writes
    here when it collects the result and publishes these counts as the
    ``rose_sync_*`` and ``rose_link_*`` series.  The fault/resilience
    columns (``packets_dropped`` … ``sensor_faults``) also feed
    ``fault_summary()``, part of the canonical mission payload, so they
    stay ``int``.
    """

    steps: int = 0
    last_target: tuple[float, float, float, float] = (0.0, 0.0, 0.0, 0.0)
    #: (sim_time of request) per camera request — latency studies read this.
    camera_request_times: list[float] = field(default_factory=list)
    #: SYNC_GRANT frames sent, regrants included (each is also a
    #: ``to_rtl`` SYNC_GRANT packet).
    sync_grants: int = 0
    #: SYNC_DONEs accepted for the step they completed.
    sync_done_ok: int = 0
    #: Watchdog expirations (at most one: it ends the mission).
    watchdog_fires: int = 0
    #: Packets by (direction, type): ``to_rtl`` the responses and control
    #: frames sent, ``from_rtl`` the SoC packets dispatched.  SYNC_GRANTs
    #: are counted in ``sync_grants`` and SYNC_DONEs are not counted here.
    link_packets: dict[tuple[str, PacketType], int] = field(default_factory=dict)
    #: The fault injector's drop/corrupt/duplicate/delay totals, written
    #: when the mission is collected.
    packets_dropped: int = 0
    packets_corrupted: int = 0
    packets_duplicated: int = 0
    packets_delayed: int = 0
    #: Frames discarded on decode at either link end (the mission runner
    #: writes the total when it collects results).
    corrupt_discards: int = 0
    #: SYNC_GRANTs re-issued by the watchdog.
    sync_regrants: int = 0
    #: SYNC_DONEs for already-finished steps.
    stale_sync_done: int = 0
    #: Stuck-IMU / camera-blackout responses served.
    sensor_faults: int = 0

    camera_requests = _dispatched(_CAMERA_REQ)
    imu_requests = _dispatched(_IMU_REQ)
    depth_requests = _dispatched(_DEPTH_REQ)
    lidar_requests = _dispatched(_LIDAR_REQ)
    state_requests = _dispatched(_STATE_REQ)
    target_commands = _dispatched(_TARGET_CMD)

    @property
    def packets_from_rtl(self) -> int:
        """SoC packets dispatched."""
        return sum(n for (way, _), n in self.link_packets.items() if way == "from_rtl")

    @property
    def packets_to_rtl(self) -> int:
        """Sensor responses sent toward the SoC (control frames excluded)."""
        return sum(
            n for (way, ptype), n in self.link_packets.items()
            if way == "to_rtl" and ptype in DATA_TYPES
        )

    def fault_summary(self) -> dict[str, int]:
        """The resilience counters as one dict (reporting/determinism checks)."""
        return {
            "packets_dropped": self.packets_dropped,
            "packets_corrupted": self.packets_corrupted,
            "packets_duplicated": self.packets_duplicated,
            "packets_delayed": self.packets_delayed,
            "corrupt_discards": self.corrupt_discards,
            "sync_regrants": self.sync_regrants,
            "stale_sync_done": self.stale_sync_done,
            "sensor_faults": self.sensor_faults,
        }


class Synchronizer:
    """Drives one environment simulator and one FireSim host in lockstep.

    ``host`` is the FireSim host when it runs in this process: its
    ``service()`` is invoked while waiting for the RTL side so it gets to
    run, and on a plain :class:`~repro.core.transport.InProcessTransport`
    it is granted by call (see the module docstring).  With a true remote
    host (TCP transport to another process/thread) pass ``None`` and the
    wait polls the transport.
    """

    def __init__(
        self,
        rpc: RpcClient,
        transport: Transport,
        sync: SyncConfig,
        host: FireSimHost | None = None,
        logger: SyncLogger | None = None,
        tracer: Tracer | None = None,
        faults: FaultInjector | None = None,
        stage_timer: StageTimer | None = None,
        invariants: InvariantChecker | None = None,
    ):
        self.rpc = rpc
        self.transport = transport
        self.sync = sync
        # Equation 1's per-step constants (properties of the frozen config).
        self._frames_per_sync = sync.frames_per_sync
        self._sync_period = sync.sync_period_seconds
        self.host = host
        #: The in-process host and its lossless link when the step's
        #: tokens go by call; ``None`` when they go as frames.
        self._by_call = (
            (host, transport)
            if host is not None and isinstance(transport, InProcessTransport)
            else None
        )
        self.logger = logger
        self.tracer = tracer
        self.faults = faults
        self.stage_timer = stage_timer
        #: Optional conformance hook (repro.core.invariants): grant/ack
        #: pairing, monotonic sim time, and cross-layer token checks.
        self.invariants = invariants
        self.stats = SyncStats()
        self.sim_time = 0.0
        self._pending_rtl: list[DataPacket] = []
        self._configured = False
        self._last_imu: dict[str, float] | None = None
        #: The environment's goal flag from the last advance's record
        #: (the mission's stop test reads it; no RPC).
        self.mission_complete = False

    # ------------------------------------------------------------------
    def configure(self) -> None:
        """Program the bridge's per-sync budgets (set_firesim_steps)."""
        self.transport.send(
            sync_set_steps(self.sync.cycles_per_sync, self.sync.frames_per_sync)
        )
        self._count_packet("to_rtl", PacketType.SYNC_SET_STEPS)
        if self.host is not None:
            self.host.service()
        self._configured = True

    def shutdown(self) -> None:
        self.transport.send(sync_shutdown())
        self._count_packet("to_rtl", PacketType.SYNC_SHUTDOWN)
        if self.host is not None:
            self.host.service()

    def _count_packet(self, direction: str, ptype: PacketType) -> None:
        packets = self.stats.link_packets
        key = (direction, ptype)
        packets[key] = packets.get(key, 0) + 1

    # ------------------------------------------------------------------
    def dispatch_pending(self) -> None:
        """Algorithm 1's first phase: translate the SoC I/O packets that
        arrived during the previous period into environment API calls.

        :meth:`step` begins with this call when packets are pending.  A
        caller may make it earlier, while the environment still holds its
        pre-advance state: the batched engine does, so that the velocity
        targets a step dispatches are applied before its batched advance.
        The step then finds nothing left to dispatch, and no packet is
        served twice.  The fault plan's ``begin_step`` runs in
        :meth:`step` before this call, so dispatching ahead of the step
        is only sound without a fault plan; the engine's lanes never
        carry one (:func:`~repro.batch.eligibility.batch_eligible`).
        Dispatch time is charged to the ``env_step`` stage wherever the
        call is made.
        """
        if not self._pending_rtl:
            return
        rtl_data, self._pending_rtl = self._pending_rtl, []
        timer = self.stage_timer
        if timer is not None:
            t0 = wall_clock()
        for packet in rtl_data:
            self._dispatch_rtl_packet(packet)
        if timer is not None:
            timer.add("env_step", wall_clock() - t0)

    def _dispatch_rtl_packet(self, packet: DataPacket) -> None:
        """Translate one SoC I/O packet into environment API calls."""
        ptype = packet.ptype
        self._count_packet("from_rtl", ptype)
        if self.tracer is not None:
            self.tracer.instant(
                ptype.name, "packet-from-rtl", self.sim_time, track="io"
            )
        if ptype == _CAMERA_REQ:
            self.stats.camera_request_times.append(self.sim_time)
            image = self.rpc.get_camera_image()
            if self.faults is not None and self.faults.camera_blackout_active():
                # Blacked-out sensor: no pixels, no usable pose metadata —
                # the controller sees a frame that says "centered".
                self.stats.sensor_faults += 1
                image = dict(
                    image,
                    pixels=bytes(len(image["pixels"])),
                    heading_error=0.0,
                    lateral_offset=0.0,
                )
            self._transmit(
                camera_response(
                    height=image["height"],
                    width=image["width"],
                    timestamp=image["timestamp"],
                    heading_error=image["heading_error"],
                    lateral_offset=image["lateral_offset"],
                    half_width=image["half_width"],
                    pixels=image["pixels"],
                )
            )
        elif ptype == _IMU_REQ:
            imu = self.rpc.get_imu()
            if self.faults is not None and self.faults.stuck_imu_active():
                # Stuck sensor: keep serving the last healthy reading.
                self.stats.sensor_faults += 1
                if self._last_imu is not None:
                    imu = self._last_imu
            self._last_imu = imu
            self._transmit(
                imu_response(
                    imu["accel_x"], imu["accel_y"], imu["accel_z"], imu["gyro_z"], imu["timestamp"]
                )
            )
        elif ptype == _DEPTH_REQ:
            self._transmit(depth_response(self.rpc.get_depth()))
        elif ptype == _LIDAR_REQ:
            scan = self.rpc.get_lidar()
            self._transmit(
                lidar_response(scan["fov_rad"], scan["timestamp"], scan["ranges"])
            )
        elif ptype == _STATE_REQ:
            st = self.rpc.get_state()
            self._transmit(
                state_response(
                    st["x"], st["y"], st["z"], st["yaw"], st["u"], st["v"], st["r"],
                    self.sim_time,
                )
            )
        elif ptype == _TARGET_CMD:
            v_forward, v_lateral, yaw_rate, altitude = packet.values
            self.stats.last_target = (v_forward, v_lateral, yaw_rate, altitude)
            self.rpc.send_velocity_target(v_forward, v_lateral, yaw_rate, altitude)
        else:
            raise SyncError(f"unexpected packet from RTL: {ptype.name}")

    def _transmit(self, packet: DataPacket) -> None:
        self._count_packet("to_rtl", packet.ptype)
        if self.tracer is not None:
            self.tracer.instant(
                packet.ptype.name, "packet-to-rtl", self.sim_time, track="io"
            )
        self.transport.send(packet)

    # ------------------------------------------------------------------
    def step(self) -> None:
        """One iteration of Algorithm 1's main loop."""
        if not self._configured:
            raise SyncError("configure() must run before stepping")
        if self.faults is not None:
            self.faults.begin_step(self.stats.steps)
        # Stage accounting (observational only — never alters behaviour):
        # env work is timed in dispatch_pending and around the advance,
        # SoC work inside the polling loop, and the remainder of the step
        # is charged to sync overhead.
        timer = self.stage_timer
        if timer is not None:
            step_t0 = wall_clock()
            charged = timer.seconds
            env_before = charged["env_step"]
            soc_before = charged["soc_step"]

        # % Translate IO packets into AirSim APIs %
        if self._pending_rtl:
            self.dispatch_pending()

        # % Allocate tokens to start AirSim and FireSim %
        step_index = self.stats.steps
        if self.invariants is not None:
            self.invariants.on_grant(step_index)
        by_call = self._by_call
        if by_call is None:
            self.transport.send(sync_grant(step_index))
        else:
            # Lossless and in process: grant by call, count the frame.
            host, link = by_call
            link.charge(_GRANT_FRAME)
            host.grant(step_index)
        self.stats.sync_grants += 1
        if timer is not None:
            t0 = wall_clock()
        record = self.rpc.continue_for_frames(self._frames_per_sync)
        self.mission_complete = record["mission_complete"]
        if timer is not None:
            timer.add("env_step", wall_clock() - t0)

        # % Poll simulators until both finish %
        if by_call is None:
            self._wait_for_sync_done(step_index)
        else:
            self._complete_by_call(step_index, *by_call)

        if self.tracer is not None:
            self.tracer.span(
                f"sync-step {step_index}",
                "sync",
                self.sim_time,
                self._sync_period,
                step=step_index,
            )
        self.sim_time += self._sync_period
        self.stats.steps += 1
        if self.invariants is not None:
            self.invariants.after_step(step_index, self.sim_time)
        if self.logger is not None:
            self.logger.log(self._log_row(record))
        if timer is not None:
            total = wall_clock() - step_t0
            env_seconds = charged["env_step"] - env_before
            soc_seconds = charged["soc_step"] - soc_before
            timer.add("sync_overhead", max(total - env_seconds - soc_seconds, 0.0))

    def _regrant(self, step_index: int, regrants: int) -> int:
        """Watchdog retry: re-issue the grant for a step that went silent."""
        if regrants >= self.sync.max_regrants:
            self.stats.watchdog_fires += 1
            raise WatchdogError(
                f"step {step_index} incomplete after {regrants} regrant(s); "
                "link presumed dead"
            )
        self.stats.sync_regrants += 1
        if self.invariants is not None:
            self.invariants.on_grant(step_index)
        self.transport.send(sync_grant(step_index))
        self.stats.sync_grants += 1
        return regrants + 1

    def _service_host(self, host: FireSimHost) -> None:
        """Let the in-process host run, timed into the ``soc_step`` stage."""
        timer = self.stage_timer
        if timer is None:
            host.service()
            return
        t0 = wall_clock()
        host.service()
        timer.add("soc_step", wall_clock() - t0)

    def _accept_done(self, step_index: int) -> None:
        self.stats.sync_done_ok += 1
        if self.invariants is not None:
            self.invariants.on_done(step_index)

    def _drain(self, step_index: int) -> tuple[bool, bool]:
        """Take every packet waiting at this end: queue the SoC's data for
        the next step's dispatch and account the SYNC_DONE frames.

        Returns whether this step's SYNC_DONE arrived and whether any
        packet did.
        """
        done = progressed = False
        for packet in self.transport.drain():
            progressed = True
            ptype = packet.ptype
            if ptype == _SYNC_DONE:
                got_index = int(packet.values[0])
                if got_index == step_index:
                    done = True
                    self._accept_done(got_index)
                elif got_index < step_index:
                    # A duplicate/delayed acknowledgement of a step we
                    # already finished (regrant aftermath) — ignore.
                    self.stats.stale_sync_done += 1
                    if self.invariants is not None:
                        self.invariants.on_done(got_index, stale=True)
                else:
                    raise SyncError(
                        f"out-of-order SYNC_DONE: expected {step_index}, got {got_index}"
                    )
            elif ptype in DATA_TYPES:
                # Emitted by the SoC during this period; handled at the
                # start of the next loop iteration (Algorithm 1).
                self._pending_rtl.append(packet)
            else:
                raise SyncError(f"unexpected packet at synchronizer: {ptype.name}")
        return done, progressed

    def _complete_by_call(
        self, step_index: int, host: FireSimHost, link: InProcessTransport
    ) -> None:
        """Run the step granted by call and read its completion back from
        the host: the lossless link's SYNC_DONE, without the frame.

        The link is drained only when the SoC sent something this step."""
        self._service_host(host)
        if link.pending:
            self._drain(step_index)
        done = host.last_done
        if done is None or done[0] != step_index:
            # Nothing is lost in process: an unanswered grant is a bug.
            raise SyncError(
                f"in-process host did not complete step {step_index} "
                f"(last completed: {done})"
            )
        link.peer.charge(_DONE_FRAME)
        self.stats.sync_done_ok += 1
        if self.invariants is not None:
            self.invariants.on_done(step_index)

    def _wait_for_sync_done(self, step_index: int) -> None:
        """Poll for this step's SYNC_DONE, surviving a lossy link.

        A lost SYNC_GRANT or SYNC_DONE is recovered by re-issuing the
        grant (the host deduplicates and re-acknowledges executed steps);
        after ``max_regrants`` unanswered re-issues — or, for a remote
        host, ``sync_done_timeout_s`` of wall-clock silence — the watchdog
        raises :class:`WatchdogError`, which the mission runner converts
        into a structured failure.
        """
        regrants = 0
        deadline = regrant_deadline = 0.0
        host = self.host
        if host is None:
            # Watchdog deadlines are wall-clock by design: they bound
            # *remote* host silence on a dead link, never simulated
            # behaviour.  An in-process host is watched by regrant count.
            deadline = time.monotonic() + self.sync.sync_done_timeout_s  # repro: allow[DET002]
            regrant_deadline = time.monotonic() + self.sync.regrant_timeout_s  # repro: allow[DET002]
        while True:
            if host is not None:
                self._service_host(host)
            done, progressed = self._drain(step_index)
            if done:
                return
            if host is not None:
                if progressed:
                    continue
                # An in-process host finishes all possible work per service
                # call, so an empty drain means the grant or its SYNC_DONE
                # was lost on the wire.
                regrants = self._regrant(step_index, regrants)
                continue
            now = time.monotonic()  # repro: allow[DET002] watchdog, host-time by design
            if now > deadline:
                self.stats.watchdog_fires += 1
                raise WatchdogError(
                    f"FireSim did not complete step {step_index} within "
                    f"{self.sync.sync_done_timeout_s:g}s"
                )
            if now > regrant_deadline:
                regrants = self._regrant(step_index, regrants)
                regrant_deadline = now + self.sync.regrant_timeout_s
            time.sleep(0.0002)

    def _log_row(self, record: StepRecord) -> SyncLogRow:
        """This step's CSV row, from the advance's record (no RPC)."""
        stats = self.stats
        packets = stats.link_packets
        target = stats.last_target
        faults = self.faults
        if faults is None:
            dropped = corrupted = 0
        else:
            dropped = faults.total("drop")
            corrupted = faults.total("corrupt")
        return SyncLogRow(
            stats.steps,
            self.sim_time,
            record["x"],
            record["y"],
            record["z"],
            record["yaw"],
            record["speed"],
            record["s"],
            record["d"],
            record["collisions"],
            packets.get(_CAMERA_REQUESTS, 0),
            packets.get(_IMU_REQUESTS, 0),
            packets.get(_DEPTH_REQUESTS, 0),
            target[0],
            target[1],
            target[2],
            dropped,
            corrupted,
            stats.sync_regrants,
        )

    # ------------------------------------------------------------------
    def run(
        self,
        max_sim_time: float,
        stop_condition: Callable[[], bool] | None = None,
    ) -> None:
        """Run the lockstep loop until ``max_sim_time`` or the condition."""
        if max_sim_time <= 0:
            raise SyncError("max_sim_time must be positive")
        while self.sim_time < max_sim_time:
            self.step()
            if stop_condition is not None and stop_condition():
                return
