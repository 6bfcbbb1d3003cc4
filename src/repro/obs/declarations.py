"""The single catalog of every metric the co-simulation records.

Lint rule OBS001 enforces that :class:`~repro.obs.metrics.MetricSpec`
is only constructed here and that every ``rose_*`` metric name used at
a call site appears in this catalog — no stringly-typed ad-hoc metrics.

Bucket edges are fixed here (not derived from data) so histogram output
is bit-stable across runs and mergeable across sweep shards.
"""

from __future__ import annotations

from repro.obs.metrics import MetricSpec, MetricsRegistry

#: Per-layer compute cost in SoC cycles: decade edges spanning a trivial
#: ReLU (~1e2 cycles) up to a large conv on the CPU path (~1e8).
LAYER_CYCLE_BUCKETS: tuple[float, ...] = (
    1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8,
)

#: End-to-end inference latency in SoC cycles (request to response).
LATENCY_CYCLE_BUCKETS: tuple[float, ...] = (
    1e6, 2e6, 5e6, 1e7, 2e7, 5e7, 1e8, 2e8, 5e8,
)

#: Metrics declared but not reachable from any committed mission
#: configuration; the coverage check skips them.
#: ``rose_app_held_commands_total`` has no writer: the trail controller
#: has sent no command before its first frame, so it has none to hold.
#: It stays declared because every golden obs snapshot lists each
#: declared metric.
#: The ``rose_sweep_*`` / ``rose_cache_*`` series live in the *sweep*
#: registry (not in mission snapshots) and record sweep-engine
#: resilience activity (retries, crashes, journal replays): they only
#: move under injected faults or cache corruption, which single demo
#: missions never produce — the chaos tests and the CI chaos job
#: exercise them instead.
#: The ``rose_serve_*`` series live in the *serve* registry and record
#: sweep-service control-plane activity (job submissions, shard leases,
#: work steals, API requests): only a running service moves them, which
#: single demo missions never do — the serve test harness and the CI
#: serve job exercise them instead.
COVERAGE_EXEMPT: frozenset[str] = frozenset(
    {
        "rose_app_held_commands_total",
        "rose_sweep_retries_total",
        "rose_sweep_timeouts_total",
        "rose_sweep_crashes_total",
        "rose_sweep_quarantined_total",
        "rose_sweep_journal_replays_total",
        "rose_cache_corrupt_total",
        "rose_sweep_batched_missions_total",
        "rose_sweep_batch_chunks_total",
        "rose_serve_jobs_submitted_total",
        "rose_serve_jobs_finished_total",
        "rose_serve_leases_granted_total",
        "rose_serve_leases_expired_total",
        "rose_serve_tasks_completed_total",
        "rose_serve_tasks_stolen_total",
        "rose_serve_requests_total",
    }
)

MISSION_METRICS: tuple[MetricSpec, ...] = (
    # -- synchronizer ---------------------------------------------------
    MetricSpec(
        "rose_sync_steps_total",
        "counter",
        "Completed lockstep synchronization steps (Algorithm 1 iterations).",
    ),
    MetricSpec(
        "rose_sync_grants_total",
        "counter",
        "SYNC_GRANT packets sent to the RTL side, including regrant resends.",
    ),
    MetricSpec(
        "rose_sync_done_total",
        "counter",
        "SYNC_DONE acknowledgements received, split by freshness.",
        labels=("result",),
    ),
    MetricSpec(
        "rose_sync_regrants_total",
        "counter",
        "Watchdog-triggered grant retransmissions.",
    ),
    MetricSpec(
        "rose_sync_watchdog_fires_total",
        "counter",
        "Watchdog expirations that aborted the mission (regrants exhausted "
        "or SYNC_DONE never arrived).",
    ),
    MetricSpec(
        "rose_sync_sensor_faults_total",
        "counter",
        "Sensor-side fault activations observed by the synchronizer "
        "(camera blackout, stuck IMU).",
    ),
    # -- link / transports ---------------------------------------------
    MetricSpec(
        "rose_link_packets_total",
        "counter",
        "Packets crossing the synchronizer boundary by direction and type.",
        labels=("direction", "ptype"),
    ),
    MetricSpec(
        "rose_link_bytes_total",
        "counter",
        "Framed bytes through each transport endpoint by direction.",
        labels=("endpoint", "direction"),
    ),
    MetricSpec(
        "rose_link_crc_discards_total",
        "counter",
        "Frames dropped by CRC verification across both transports.",
    ),
    MetricSpec(
        "rose_link_faults_total",
        "counter",
        "Wire-level fault effects applied to the link, by kind "
        "(drop/corrupt/duplicate/delay).",
        labels=("kind",),
    ),
    # -- fault injector -------------------------------------------------
    MetricSpec(
        "rose_faults_injected_total",
        "counter",
        "Fault-injector decisions by kind and packet type, counted at the "
        "moment of injection.",
        labels=("kind", "ptype"),
    ),
    # -- bridge / SoC ---------------------------------------------------
    MetricSpec(
        "rose_bridge_packets_total",
        "counter",
        "RoseBridge queue traffic by queue (rx/tx) and event "
        "(enqueued/dequeued/rejected).",
        labels=("queue", "event"),
    ),
    MetricSpec(
        "rose_bridge_steps_granted_total",
        "counter",
        "Cycle-budget grants accepted by the bridge.",
    ),
    MetricSpec(
        "rose_soc_dma_bytes_total",
        "counter",
        "Payload bytes DMA'd across the bridge by direction (rx/tx).",
        labels=("direction",),
    ),
    MetricSpec(
        "rose_soc_cycles_total",
        "counter",
        "Simulated SoC cycles elapsed over the mission.",
    ),
    MetricSpec(
        "rose_soc_cpu_busy_cycles_total",
        "counter",
        "Cycles the SoC CPU spent busy (non-idle).",
    ),
    MetricSpec(
        "rose_soc_idle_cycles_total",
        "counter",
        "Cycles the SoC spent idle waiting for work.",
    ),
    MetricSpec(
        "rose_soc_gemmini_busy_cycles_total",
        "counter",
        "Cycles the Gemmini accelerator spent busy.",
    ),
    MetricSpec(
        "rose_soc_gemmini_ops_total",
        "counter",
        "Operations dispatched to the Gemmini accelerator.",
    ),
    MetricSpec(
        "rose_soc_mmio_total",
        "counter",
        "MMIO accesses to the bridge register file by operation.",
        labels=("op",),
    ),
    MetricSpec(
        "rose_soc_inferences_total",
        "counter",
        "DNN inferences completed on the SoC.",
    ),
    # -- DNN runtime ----------------------------------------------------
    MetricSpec(
        "rose_dnn_layer_cycles",
        "histogram",
        "Per-layer compute cost in SoC cycles, labelled by model and "
        "backend (cpu/gemmini).",
        labels=("model", "backend"),
        buckets=LAYER_CYCLE_BUCKETS,
    ),
    # -- application layer ---------------------------------------------
    MetricSpec(
        "rose_app_inferences_total",
        "counter",
        "Application-level inference requests completed, by model.",
        labels=("model",),
    ),
    MetricSpec(
        "rose_app_inference_latency_cycles",
        "histogram",
        "End-to-end inference latency in SoC cycles (request cycle to "
        "response cycle), by model.",
        labels=("model",),
        buckets=LATENCY_CYCLE_BUCKETS,
    ),
    MetricSpec(
        "rose_app_sensor_timeouts_total",
        "counter",
        "Sensor requests the trail app abandoned after the timeout budget.",
    ),
    MetricSpec(
        "rose_app_sensor_retries_total",
        "counter",
        "Sensor request retries issued by the trail app.",
    ),
    MetricSpec(
        "rose_app_stale_frames_total",
        "counter",
        "Control decisions recomputed from a stale (held) camera frame.",
    ),
    MetricSpec(
        "rose_app_held_commands_total",
        "counter",
        "Actuation commands re-issued with no frame ever received.",
    ),
    MetricSpec(
        "rose_fusion_sensor_timeouts_total",
        "counter",
        "Fusion-pipeline sensor timeouts by sensor branch.",
        labels=("sensor",),
    ),
    MetricSpec(
        "rose_fusion_sensor_retries_total",
        "counter",
        "Fusion-pipeline sensor request retries.",
    ),
    MetricSpec(
        "rose_app_deadline_checks_total",
        "counter",
        "Deadline-policy evaluations in the dynamic runtime, split by "
        "whether the situation was at risk (Eq. 3 TTC below threshold).",
        labels=("at_risk",),
    ),
    MetricSpec(
        "rose_app_deadline_misses_total",
        "counter",
        "Inferences whose selected model could not meet the process "
        "deadline (Eq. 5).",
    ),
    # -- mission summary ------------------------------------------------
    MetricSpec(
        "rose_mission_sim_time_seconds",
        "gauge",
        "Simulated time covered by the mission.",
    ),
    MetricSpec(
        "rose_mission_progress",
        "gauge",
        "Fraction of the course completed (0..1).",
    ),
    MetricSpec(
        "rose_mission_completed",
        "gauge",
        "1 if the mission finished the course without failure, else 0.",
    ),
    MetricSpec(
        "rose_mission_collisions_total",
        "counter",
        "Collisions recorded by the environment during the mission.",
    ),
)


#: Sweep-engine resilience metrics.  Recorded by the *sweep supervisor*
#: (parent process), never by a mission: they live in their own registry
#: so per-mission flight-recorder snapshots — and everything hashed from
#: them (golden corpus telemetry, mission signatures' obs payloads) —
#: are byte-identical whether or not the mission ran under a sweep.
SWEEP_METRICS: tuple[MetricSpec, ...] = (
    MetricSpec(
        "rose_sweep_retries_total",
        "counter",
        "Failed task attempts re-dispatched under the sweep RetryPolicy.",
    ),
    MetricSpec(
        "rose_sweep_timeouts_total",
        "counter",
        "Task attempts killed for exceeding the per-task timeout.",
    ),
    MetricSpec(
        "rose_sweep_crashes_total",
        "counter",
        "Worker-pool breaks (BrokenProcessPool) survived by respawning.",
    ),
    MetricSpec(
        "rose_sweep_quarantined_total",
        "counter",
        "Poison tasks quarantined after exhausting their retry budget.",
    ),
    MetricSpec(
        "rose_sweep_journal_replays_total",
        "counter",
        "Tasks skipped on --resume because the sweep journal already "
        "recorded their completion.",
    ),
    MetricSpec(
        "rose_cache_corrupt_total",
        "counter",
        "Corrupt result-cache entries quarantined to <key>.pkl.corrupt.",
    ),
    MetricSpec(
        "rose_sweep_batched_missions_total",
        "counter",
        "Cache-missed missions executed on the batched lockstep engine "
        "instead of one-process-per-mission.",
    ),
    MetricSpec(
        "rose_sweep_batch_chunks_total",
        "counter",
        "Lockstep engine invocations (groups of compatible missions "
        "advanced together) during sweep execution.",
    ),
)

#: Sweep-service control-plane metrics.  Recorded by the *serve* layer
#: (scheduler, API front-end) in its own registry: they describe the
#: service's operational behaviour — queueing, leasing, stealing — and
#: must never leak into mission snapshots or sweep reports, whose
#: deterministic views are compared bit-for-bit against serial runs.
SERVE_METRICS: tuple[MetricSpec, ...] = (
    MetricSpec(
        "rose_serve_jobs_submitted_total",
        "counter",
        "Sweep submissions accepted by the service, split by outcome "
        "(submitted = new job, deduplicated = content-addressed hit on an "
        "existing job, requeued = terminal failed/cancelled job reopened).",
        labels=("result",),
    ),
    MetricSpec(
        "rose_serve_jobs_finished_total",
        "counter",
        "Jobs reaching a terminal state, by state (done/failed/cancelled).",
        labels=("state",),
    ),
    MetricSpec(
        "rose_serve_leases_granted_total",
        "counter",
        "Task-slice leases handed to shard workers.",
    ),
    MetricSpec(
        "rose_serve_leases_expired_total",
        "counter",
        "Leases revoked because the owning shard missed its heartbeat "
        "deadline (the dead-shard detection edge of the steal protocol).",
    ),
    MetricSpec(
        "rose_serve_tasks_completed_total",
        "counter",
        "Task completions recorded by the scheduler, by terminal state.",
        labels=("state",),
    ),
    MetricSpec(
        "rose_serve_tasks_stolen_total",
        "counter",
        "Tasks re-leased to a different shard after their original "
        "owner's lease expired (work-stealing).",
    ),
    MetricSpec(
        "rose_serve_requests_total",
        "counter",
        "Serve API requests, by route and response status.",
        labels=("route", "status"),
    ),
)

#: The full declared catalog (lint rule OBS001's source of truth).
DECLARED_METRICS: tuple[MetricSpec, ...] = (
    MISSION_METRICS + SWEEP_METRICS + SERVE_METRICS
)


def mission_registry() -> MetricsRegistry:
    """A fresh registry pre-loaded with the mission metric catalog."""
    return MetricsRegistry(MISSION_METRICS)


def sweep_registry() -> MetricsRegistry:
    """A fresh registry for sweep-supervisor resilience metrics."""
    return MetricsRegistry(SWEEP_METRICS)


def serve_registry() -> MetricsRegistry:
    """A fresh registry for sweep-service control-plane metrics."""
    return MetricsRegistry(SERVE_METRICS)


def spec_for(name: str) -> MetricSpec | None:
    """Look up a declared spec by name (None if not declared)."""
    for spec in DECLARED_METRICS:
        if spec.name == name:
            return spec
    return None
