"""Top-level co-simulation assembly and the mission runner.

:class:`CoSimulation` wires together everything Figure 3 shows: the
environment simulator behind its RPC server, the SoC model inside a
FireSim host with the RoSE bridge, the controller application loaded as
the target program, and the synchronizer in the middle.  :func:`run_mission`
is the one-call entry point the examples and benchmarks use.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.app.controller import AppStats, ControllerGains, trail_navigation_app
from repro.app.dynamic import DynamicRuntimeConfig, dynamic_trail_app
from repro.app.fusion import FusionConfig, FusionStats, fusion_controller_app
from repro.app.mpc import MpcController, MpcStats, mpc_navigation_app
from repro.app.perception import BehavioralPerception, Perception
from repro.app.monitor import MonitorStats, dnn_monitor_app
from repro.app.slam_nav import SlamNavStats, slam_mapping_app, slam_navigation_app
from repro.dnn.fusion import FusionSessions
from repro.slam.pipeline import SlamPipeline, slam_grid_for_world
from repro.soc.demux import IoDemux
from repro.core.config import CoSimConfig
from repro.core.csvlog import SyncLogger
from repro.core.faults import FaultInjector
from repro.core.invariants import InvariantChecker, invariants_enabled
from repro.core.packets import PacketType
from repro.core.synchronizer import Synchronizer, SyncStats
from repro.core.timing import StageTimer, TimedPerception
from repro.core.trace import Tracer
from repro.core.transport import FaultyTransport, transport_pair
from repro.errors import TransportError, WatchdogError
from repro.obs.declarations import mission_registry
from repro.obs.metrics import MetricsRegistry
from repro.obs.recorder import FlightRecord, trace_summary
from repro.dnn.calibrated import classifier_profile
from repro.dnn.resnet import build_resnet_graph
from repro.dnn.runtime import InferenceSession
from repro.env.rpc import RpcServer
from repro.env.simulator import EnvSimulator, TrajectorySample
from repro.env.worlds import cached_world
from repro.soc.firesim import FireSimHost
from repro.soc.soc import Soc, TargetRuntime, soc_config

#: A target program: the factory the SoC scheduler calls with its runtime.
ProgramFactory = Callable[[TargetRuntime], object]

#: The dynamic runtime's fixed network pairing (Section 5.3).
DYNAMIC_HI_MODEL = "resnet14"
DYNAMIC_LO_MODEL = "resnet6"


@dataclass
class MissionResult:
    """Everything the paper's figures report about one flight."""

    config: CoSimConfig
    completed: bool
    mission_time: float | None
    #: ``None`` for a clean flight (completed or honest DNF); the reason
    #: string when the co-simulation itself failed: ``"watchdog"`` (the
    #: synchronizer gave up re-granting a lost step) or ``"link_timeout"``
    #: (the transport died).
    failure_reason: str | None
    sim_time: float
    collisions: int
    progress: float
    average_velocity: float
    activity_factor: float
    soc_cycles: int
    gemmini_busy_cycles: int
    inference_count: int
    mean_inference_latency_ms: float
    trajectory: list[TrajectorySample] = field(repr=False, default_factory=list)
    app_stats: AppStats | None = field(repr=False, default=None)
    mpc_stats: MpcStats | None = field(repr=False, default=None)
    fusion_stats: FusionStats | None = field(repr=False, default=None)
    slam_stats: SlamNavStats | None = field(repr=False, default=None)
    background_stats: SlamNavStats | None = field(repr=False, default=None)
    monitor_stats: MonitorStats | None = field(repr=False, default=None)
    sync_stats: SyncStats | None = field(repr=False, default=None)
    logger: SyncLogger | None = field(repr=False, default=None)
    #: Host wall-clock seconds per co-simulation stage (env_step, soc_step,
    #: sync_overhead, inference).  Observational only — excluded from
    #: result signatures and cache keys, since wall time varies run-to-run.
    stage_timings: dict[str, float] | None = field(repr=False, default=None)
    #: The mission's ``rose-obs/1`` flight record (repro.obs): metrics
    #: snapshot + stage timings + trace summary.  Rides through the sweep
    #: result cache, so cache hits reconstitute their telemetry.
    obs: FlightRecord | None = field(repr=False, default=None, compare=False)

    @property
    def label(self) -> str:
        if self.config.controller == "mpc":
            mode = "mpc"
        elif self.config.controller == "slam":
            mode = "slam"
        elif self.config.controller == "ros":
            mode = f"ros-{self.config.model}"
        elif self.config.controller == "fusion":
            mode = f"fusion-{self.config.model}"
        elif self.config.dynamic_runtime:
            mode = "dynamic"
        else:
            mode = self.config.model
        return f"{self.config.soc}/{mode}@{self.config.target_velocity:g}m/s"

    def summary(self) -> str:
        if self.completed:
            status = f"completed in {self.mission_time:.2f}s"
        elif self.failure_reason:
            status = (
                f"FAILED ({self.failure_reason}, "
                f"progress {100 * self.progress:.0f}%)"
            )
        else:
            status = f"DNF (progress {100 * self.progress:.0f}%)"
        return (
            f"{self.label}: {status}, {self.collisions} collision(s), "
            f"avg velocity {self.average_velocity:.2f} m/s, "
            f"activity factor {self.activity_factor:.3f}, "
            f"{self.inference_count} inferences "
            f"(mean latency {self.mean_inference_latency_ms:.1f} ms)"
        )


class CoSimulation:
    """One configured closed-loop co-simulation, ready to run."""

    def __init__(
        self,
        config: CoSimConfig,
        perception: Perception | None = None,
        tracer: Tracer | None = None,
    ):
        self.config = config
        self.tracer = tracer
        #: Wall-clock stage accounting for this run (observational only).
        self.stage_timer = StageTimer()
        #: One shared InferenceSession per model within this simulation —
        #: the dynamic runtime and background tenants reuse graphs/plans
        #: instead of rebuilding them per call site.
        self._sessions: dict[str, InferenceSession] = {}

        # Environment side (Figure 3, left).
        world = (
            cached_world(config.world, **config.world_params)
            if config.world_params
            else None
        )
        # Render camera frames only if a perception reads them.  Every
        # app uses the given perception or the behavioural one, which
        # reads none (as does the dynamic runtime's low model), so the
        # given perception decides.
        self.env = EnvSimulator(
            config.env_config(),
            world=world,
            pixels=perception is not None and perception.reads_pixels,
        )
        self.rpc = RpcServer(self.env)

        # Hardware side (Figure 3, right).  The SoC's target clock is the
        # one SyncConfig's Equation 1 is built around — single source.
        base_soc = soc_config(config.soc)
        if (
            base_soc.frequency_hz != config.sync.soc_frequency_hz
            or base_soc.gemmini_dtype != config.gemmini_dtype
        ):
            base_soc = dataclasses.replace(
                base_soc,
                frequency_hz=config.sync.soc_frequency_hz,
                gemmini_dtype=config.gemmini_dtype,
            )
        self.soc = Soc(base_soc)

        # Fault injection (optional).  One injector is shared by both
        # transport endpoints and the synchronizer so the seeded RNG is
        # consumed in deterministic packet order.
        self.fault_injector = (
            FaultInjector(config.faults) if config.faults is not None else None
        )
        self.app_stats = AppStats()
        self.mpc_stats = MpcStats()
        self.fusion_stats = FusionStats()
        self.slam_stats = SlamNavStats()
        self.background_stats = SlamNavStats()
        self.monitor_stats = MonitorStats()
        self._demux = IoDemux() if config.background else None
        app = self._build_app(perception)
        if app is not None:
            self.soc.load_program(app)
        if config.background == "slam-mapper":
            self._load_background_mapper()
        elif config.background == "dnn-monitor":
            self._load_background_monitor()

        # The link between them.
        sync_end, firesim_end = transport_pair(config.transport)
        if self.fault_injector is not None:
            sync_end = FaultyTransport(sync_end, self.fault_injector)
            firesim_end = FaultyTransport(firesim_end, self.fault_injector)
        self.host = FireSimHost(self.soc, firesim_end)
        self.logger = SyncLogger()

        # Runtime invariant checking (repro.core.invariants) — observational
        # assertions across the synchronizer, bridge, transports, and fault
        # injector.  On by default under pytest, opt-in elsewhere.
        self.invariants: InvariantChecker | None = None
        if invariants_enabled(config):
            self.invariants = InvariantChecker(config.sync)
            self.invariants.watch(
                bridge=self.soc.bridge,
                host=self.host,
                soc=self.soc,
                transports=(sync_end, firesim_end),
                injector=self.fault_injector,
            )
            self.soc.bridge.invariants = self.invariants
            if self.fault_injector is not None:
                self.fault_injector.invariants = self.invariants

        self.synchronizer = Synchronizer(
            rpc=self.rpc,
            transport=sync_end,
            sync=config.sync,
            host=self.host,
            logger=self.logger,
            tracer=tracer,
            faults=self.fault_injector,
            stage_timer=self.stage_timer,
            invariants=self.invariants,
        )

    # ------------------------------------------------------------------
    def _build_app(self, perception: Perception | None) -> ProgramFactory | None:
        config = self.config
        # Degradation timeouts arm only under fault injection: with a
        # healthy link the apps wait indefinitely, so their op streams —
        # and hence every mission metric — are bit-identical to a build
        # without the fault subsystem.
        if config.faults is not None:
            sensor_timeout_cycles = (
                config.sensor_timeout_syncs * config.sync.cycles_per_sync
            )
            sensor_retries = config.sensor_retries
        else:
            sensor_timeout_cycles = None
            sensor_retries = 0
        if config.controller == "mpc":
            controller = MpcController(
                world=self.env.world, target_velocity=config.target_velocity
            )
            return lambda rt: mpc_navigation_app(
                rt, controller, self.soc.cpu, stats=self.mpc_stats
            )
        if config.controller == "ros":
            from repro.roslite.trail_nodes import load_trail_pipeline

            pipeline = load_trail_pipeline(
                self.soc,
                self._timed(perception or self._behavioral(config.model)),
                self._session(config.model),
                target_velocity=config.target_velocity,
            )
            self.app_stats = pipeline.stats
            self.ros_pipeline = pipeline
            return None
        if config.controller == "slam":
            env_world = self.env.world
            pipeline = SlamPipeline(
                slam_grid_for_world(env_world),
                initial_x=self.env.dynamics.state.x,
                initial_y=self.env.dynamics.state.y,
                initial_yaw=self.env.dynamics.state.yaw,
            )
            return lambda rt: slam_navigation_app(
                rt,
                pipeline,
                env_world,
                self.soc.cpu,
                target_velocity=config.target_velocity,
                stats=self.slam_stats,
                seed=config.seed + 31,
            )
        if config.controller == "fusion":
            sessions = FusionSessions(
                self.soc.cpu, self.soc.gemmini, camera_variant=config.model
            )
            chosen = self._timed(perception or self._behavioral(config.model))
            return lambda rt: fusion_controller_app(
                rt,
                sessions,
                chosen,
                target_velocity=config.target_velocity,
                cpu=self.soc.cpu,
                config=FusionConfig(camera_every=config.fusion_camera_every),
                stats=self.fusion_stats,
                sensor_timeout_cycles=sensor_timeout_cycles,
                sensor_retries=sensor_retries,
            )
        defaults = ControllerGains()
        gains = ControllerGains(
            beta_lateral=(
                defaults.beta_lateral if config.beta_lateral is None else config.beta_lateral
            ),
            beta_angular=(
                defaults.beta_angular if config.beta_angular is None else config.beta_angular
            ),
        )
        if config.dynamic_runtime:
            session_hi = self._session(DYNAMIC_HI_MODEL)
            session_lo = self._session(DYNAMIC_LO_MODEL)
            perception_hi = self._timed(perception or self._behavioral(DYNAMIC_HI_MODEL))
            perception_lo = self._timed(self._behavioral(DYNAMIC_LO_MODEL))
            return lambda rt: dynamic_trail_app(
                rt,
                session_hi,
                session_lo,
                perception_hi,
                perception_lo,
                target_velocity=config.target_velocity,
                config=DynamicRuntimeConfig(gains=gains),
                stats=self.app_stats,
            )
        session = self._session(config.model)
        chosen = self._timed(perception or self._behavioral(config.model))
        return lambda rt: trail_navigation_app(
            rt,
            session,
            chosen,
            target_velocity=config.target_velocity,
            gains=gains,
            stats=self.app_stats,
            argmax_policy=config.argmax_policy,
            demux=self._demux,
            sensor_timeout_cycles=sensor_timeout_cycles,
            sensor_retries=sensor_retries,
        )

    def _load_background_mapper(self) -> None:
        """Add the concurrent SLAM mapping workload (multi-tenant mode)."""
        pipeline = SlamPipeline(
            slam_grid_for_world(self.env.world),
            initial_x=self.env.dynamics.state.x,
            initial_y=self.env.dynamics.state.y,
            initial_yaw=self.env.dynamics.state.yaw,
        )
        self.soc.add_program(
            lambda rt: slam_mapping_app(
                rt,
                pipeline,
                self.soc.cpu,
                stats=self.background_stats,
                seed=self.config.seed + 47,
                demux=self._demux,
            ),
            name="slam-mapper",
        )

    def _load_background_monitor(self) -> None:
        """Add a periodic background DNN workload (accelerator tenant)."""
        session = self._session("resnet6")
        self.soc.add_program(
            lambda rt: dnn_monitor_app(
                rt, session, self.soc.cpu, stats=self.monitor_stats
            ),
            name="dnn-monitor",
        )

    def _session(self, model: str) -> InferenceSession:
        """One shared session per model (the graph itself is memoized
        process-wide by :func:`build_resnet_graph`)."""
        session = self._sessions.get(model)
        if session is None:
            session = InferenceSession(
                build_resnet_graph(model),
                self.soc.cpu,
                self.soc.gemmini,
                stage_timer=self.stage_timer,
            )
            self._sessions[model] = session
        return session

    def _timed(self, perception: Perception) -> TimedPerception:
        """Wrap a perception so its wall time lands in the ``inference`` stage."""
        return TimedPerception(perception, self.stage_timer)

    def _behavioral(self, model: str) -> BehavioralPerception:
        return BehavioralPerception(
            classifier_profile(model, quantized=self.config.gemmini_dtype == "int8"),
            seed=self.config.seed + 17,
        )

    # ------------------------------------------------------------------
    def run(self) -> MissionResult:
        """Fly the mission to completion, timeout, or max simulated time.

        An unrecoverable link failure ends the mission with a structured
        :class:`MissionResult` (``failure_reason`` set, everything flown
        so far collected) rather than an unhandled exception — a crashed
        link is an *experimental outcome* under fault injection, not a
        harness bug.
        """
        failure_reason: str | None = None
        self.start()
        try:
            self.synchronizer.run(max_sim_time=self.config.max_sim_time)
        except WatchdogError:
            failure_reason = "watchdog"
        except TransportError:
            failure_reason = "link_timeout"
        return self.finish(failure_reason)

    def start(self) -> None:
        """Program the bridge's budgets and take off: what precedes the
        first lockstep step."""
        self.synchronizer.configure()
        self.rpc.call("takeoff")

    def finish(self, failure_reason: str | None) -> MissionResult:
        """Shut the link down and collect the flown mission's result."""
        try:
            self.synchronizer.shutdown()
        except TransportError:
            # A dead link cannot deliver the shutdown packet; the result
            # below already records why.
            failure_reason = failure_reason or "link_timeout"
        return self._collect(failure_reason)

    def _collect(self, failure_reason: str | None = None) -> MissionResult:
        # Deferred: importing repro.sweep at module scope would close an
        # import cycle (sweep.runner imports this module).  By the time a
        # mission is collected, both packages are fully initialised.
        from repro.sweep.fingerprint import config_key

        env = self.env
        sync = self.synchronizer.stats
        # The synchronizer only sees its own endpoint's decode discards;
        # corrupted sensor responses die at the FireSim end.  Fold both
        # ends into the mission-level count.
        sync.corrupt_discards = getattr(
            self.synchronizer.transport, "corrupt_packets", 0
        ) + getattr(self.host.transport, "corrupt_packets", 0)
        # The injector counts every wire fault, the shutdown frame's too.
        injector = self.fault_injector
        if injector is not None:
            sync.packets_dropped = injector.total("drop")
            sync.packets_corrupted = injector.total("corrupt")
            sync.packets_duplicated = injector.total("duplicate")
            sync.packets_delayed = injector.total("delay")
        completed = env.mission_complete
        mission_time = env.mission_time
        if completed and mission_time and mission_time > 0:
            avg_velocity = env.world.goal_arclength / mission_time
        else:
            traj = env.trajectory
            avg_velocity = (
                float(np.mean([p.speed for p in traj])) if traj else 0.0
            )
        obs = mission_registry()
        self._record_final_metrics(obs, completed)
        result = MissionResult(
            config=self.config,
            completed=completed,
            mission_time=mission_time,
            failure_reason=failure_reason,
            sim_time=env.sim_time,
            collisions=env.collision_count,
            progress=env.course_progress,
            average_velocity=avg_velocity,
            activity_factor=self.soc.activity_factor,
            soc_cycles=self.soc.cycle,
            gemmini_busy_cycles=self.soc.gemmini_busy_cycles,
            inference_count=self.app_stats.inference_count,
            mean_inference_latency_ms=self.app_stats.mean_latency_ms(
                self.soc.config.frequency_hz
            ),
            trajectory=list(env.trajectory),
            app_stats=self.app_stats,
            mpc_stats=self.mpc_stats,
            fusion_stats=self.fusion_stats,
            slam_stats=self.slam_stats,
            background_stats=self.background_stats,
            monitor_stats=self.monitor_stats,
            sync_stats=sync,
            logger=self.logger,
            stage_timings=self.stage_timer.asdict(),
        )
        result.obs = FlightRecord(
            label=result.label,
            config_key=config_key(self.config),
            metrics=obs.snapshot(),
            stage_timings=self.stage_timer.asdict(),
            trace=(
                trace_summary(self.tracer.events)
                if self.tracer is not None
                else None
            ),
        )
        return result

    def _record_final_metrics(self, obs: MetricsRegistry, completed: bool) -> None:
        """Publish the finished mission's counts into its registry.

        This is the one place a mission's ``rose_*`` series are written;
        the components count in plain fields while the mission flies.  A
        counted series exists iff its count is non-zero, except the
        two-ended CRC discard total (always written) and, under any fault
        plan, the four ``rose_link_faults_total`` kinds (written at 0
        too).  The SoC, bridge, link-byte and mission-summary totals
        settle only once the mission is over and are always written.
        """
        sync = self.synchronizer.stats
        if sync.steps:
            obs.advance_to("rose_sync_steps_total", sync.steps)
        if sync.sync_grants:
            obs.advance_to("rose_sync_grants_total", sync.sync_grants)
            obs.advance_to(
                "rose_link_packets_total",
                sync.sync_grants,
                direction="to_rtl",
                ptype=PacketType.SYNC_GRANT.name,
            )
        for (direction, ptype), count in sync.link_packets.items():
            obs.advance_to(
                "rose_link_packets_total", count, direction=direction, ptype=ptype.name
            )
        if sync.sync_done_ok:
            obs.advance_to("rose_sync_done_total", sync.sync_done_ok, result="ok")
        if sync.stale_sync_done:
            obs.advance_to("rose_sync_done_total", sync.stale_sync_done, result="stale")
        if sync.sync_regrants:
            obs.advance_to("rose_sync_regrants_total", sync.sync_regrants)
        if sync.watchdog_fires:
            obs.advance_to("rose_sync_watchdog_fires_total", sync.watchdog_fires)
        if sync.sensor_faults:
            obs.advance_to("rose_sync_sensor_faults_total", sync.sensor_faults)
        obs.advance_to("rose_link_crc_discards_total", sync.corrupt_discards)
        if self.fault_injector is not None:
            for kind, total in (
                ("drop", sync.packets_dropped),
                ("corrupt", sync.packets_corrupted),
                ("duplicate", sync.packets_duplicated),
                ("delay", sync.packets_delayed),
            ):
                obs.advance_to("rose_link_faults_total", total, kind=kind)
            for (kind, ptype), count in self.fault_injector.injected.items():
                obs.advance_to(
                    "rose_faults_injected_total", count, kind=kind, ptype=ptype.name
                )

        app = self.app_stats
        for model, count in app.inferences_by_model.items():
            obs.advance_to("rose_app_inferences_total", count, model=model)
        for record in app.records:
            obs.observe(
                "rose_app_inference_latency_cycles",
                record.latency_cycles,
                model=record.model,
            )
        if app.sensor_timeouts:
            obs.advance_to("rose_app_sensor_timeouts_total", app.sensor_timeouts)
        if app.sensor_retries:
            obs.advance_to("rose_app_sensor_retries_total", app.sensor_retries)
        if app.stale_frames_reused:
            obs.advance_to("rose_app_stale_frames_total", app.stale_frames_reused)
        for at_risk, count in app.deadline_checks.items():
            obs.advance_to("rose_app_deadline_checks_total", count, at_risk=at_risk)
        if app.deadline_misses:
            obs.advance_to("rose_app_deadline_misses_total", app.deadline_misses)
        fusion = self.fusion_stats
        if fusion.imu_timeouts:
            obs.advance_to(
                "rose_fusion_sensor_timeouts_total", fusion.imu_timeouts, sensor="imu"
            )
        if fusion.camera_timeouts:
            obs.advance_to(
                "rose_fusion_sensor_timeouts_total",
                fusion.camera_timeouts,
                sensor="camera",
            )
        if fusion.sensor_retries:
            obs.advance_to("rose_fusion_sensor_retries_total", fusion.sensor_retries)

        env = self.env
        soc = self.soc
        obs.advance_to("rose_soc_cycles_total", soc.cycle)
        obs.advance_to("rose_soc_cpu_busy_cycles_total", soc.counters.cpu_busy_cycles)
        obs.advance_to("rose_soc_idle_cycles_total", soc.idle_cycles)
        obs.advance_to("rose_soc_gemmini_busy_cycles_total", soc.gemmini_busy_cycles)
        obs.advance_to("rose_soc_mmio_total", soc.counters.mmio_reads, op="read")
        obs.advance_to("rose_soc_mmio_total", soc.counters.mmio_writes, op="write")
        obs.advance_to("rose_soc_inferences_total", soc.counters.inferences)
        bridge = soc.bridge.counters
        for queue, event, count in (
            ("rx", "enqueued", bridge.rx_enqueued),
            ("rx", "dequeued", bridge.rx_dequeued),
            ("rx", "rejected", bridge.rx_rejected),
            ("tx", "enqueued", bridge.tx_enqueued),
            ("tx", "dequeued", bridge.tx_dequeued),
        ):
            obs.advance_to("rose_bridge_packets_total", count, queue=queue, event=event)
        obs.advance_to("rose_bridge_steps_granted_total", bridge.steps_granted)
        obs.advance_to("rose_soc_dma_bytes_total", bridge.rx_bytes_enqueued, direction="rx")
        obs.advance_to("rose_soc_dma_bytes_total", bridge.tx_bytes_enqueued, direction="tx")
        for endpoint, transport in (
            ("sync", self.synchronizer.transport),
            ("firesim", self.host.transport),
        ):
            obs.advance_to(
                "rose_link_bytes_total",
                getattr(transport, "bytes_sent", 0),
                endpoint=endpoint,
                direction="sent",
            )
            obs.advance_to(
                "rose_link_bytes_total",
                getattr(transport, "bytes_received", 0),
                endpoint=endpoint,
                direction="received",
            )
        # Per-layer cost histograms: the cost plan is static per session,
        # so each node contributes `inferences_run` observations.
        gemmini_ops = 0
        for session in self._sessions.values():
            runs = session.inferences_run
            if runs <= 0:
                continue
            for cost in session.report.node_costs:
                if cost.backend == "gemmini":
                    gemmini_ops += runs
                if cost.cycles <= 0:
                    continue
                obs.observe(
                    "rose_dnn_layer_cycles",
                    cost.cycles,
                    count=runs,
                    model=session.graph.name,
                    backend=cost.backend,
                )
        obs.advance_to("rose_soc_gemmini_ops_total", gemmini_ops)
        obs.set("rose_mission_sim_time_seconds", env.sim_time)
        obs.set("rose_mission_progress", env.course_progress)
        obs.set("rose_mission_completed", 1 if completed else 0)
        obs.advance_to("rose_mission_collisions_total", env.collision_count)


def run_mission(
    config: CoSimConfig,
    perception: Perception | None = None,
    tracer: Tracer | None = None,
) -> MissionResult:
    """Build and run one mission (the examples' and benches' entry point)."""
    return CoSimulation(config, perception=perception, tracer=tracer).run()
