"""The sweep service facade: submit, shard, steal, report — bit-identically.

:class:`SweepService` wires the serve stack together: a journaled
:class:`~repro.serve.jobs.JobStore`, the lease/steal
:class:`~repro.serve.scheduler.Scheduler`, a shared content-addressed
:class:`~repro.sweep.cache.ResultCache`, and (in production mode) a
:class:`~repro.serve.workers.ThreadedWorkerHost` plus a tick thread that
expires dead shards' leases.  The HTTP layer
(:mod:`repro.serve.api`) is a thin JSON shim over this object; the
deterministic end-to-end harness drives it directly with a
:class:`~repro.serve.clock.FakeClock` and hand-stepped workers.

The service's headline contract is **serial/service bit-identity**: a
sweep executed through N shards with work-stealing must reproduce the
single-host serial :class:`~repro.sweep.runner.SweepReport` exactly.
:func:`report_signature` is the equality the ``service_vs_serial``
oracle checks — a digest over what the sweep *computed*:

* per task (in submission order): name, success-or-failure identity
  (``ok`` and ``from_cache`` normalize together — a stolen task that
  resolves from the dead shard's cache entry computed the same thing a
  cold serial run computes), the mission signature of the result, and
  the failure kind if any;
* the merged mission telemetry (associative/commutative, so shard
  placement cannot move it).

Deliberately *excluded*: wall times, worker counts, owner attribution,
cache hit counters, and every ``rose_sweep_*`` / ``rose_serve_*`` ops
series — those describe *how* the sweep ran, and sharding is allowed to
change the how, never the what.
"""

from __future__ import annotations

import hashlib
import json
import threading
from pathlib import Path
from typing import Any

from repro.errors import ServeError
from repro.obs.aggregate import merge_snapshots
from repro.obs.declarations import serve_registry, sweep_registry
from repro.obs.metrics import MetricsRegistry
from repro.serve.clock import Clock, SystemClock
from repro.serve.jobs import JobParams, JobStore
from repro.serve.scheduler import Scheduler, SubmitTasks
from repro.serve.workers import ShardWorker, ThreadedWorkerHost
from repro.sweep.cache import ResultCache
from repro.sweep.fingerprint import code_fingerprint
from repro.sweep.resilience import TaskFailure
from repro.sweep.runner import SweepOutcome, SweepReport
from repro.sweep.signature import mission_signature

#: Filenames inside a service root directory.
JOBS_LOG = "jobs.jsonl"
CACHE_DIR = "cache"


def report_signature(report: SweepReport) -> str:
    """Digest of what a sweep computed (never how it was scheduled)."""
    tasks = []
    for outcome in report.outcomes:
        tasks.append(
            {
                "name": outcome.name,
                "state": "ok" if outcome.ok else outcome.state,
                "signature": (
                    mission_signature(outcome.result)
                    if outcome.result is not None
                    else None
                ),
                "failure": (
                    outcome.failure.kind if outcome.failure is not None else None
                ),
            }
        )
    mission_metrics = merge_snapshots(
        [
            outcome.result.obs.metrics
            for outcome in report.outcomes
            if outcome.result is not None and outcome.result.obs is not None
        ]
    )
    payload = json.dumps(
        {"tasks": tasks, "mission_metrics": mission_metrics},
        sort_keys=True,
        separators=(",", ":"),
        default=str,
    )
    return hashlib.sha256(payload.encode()).hexdigest()


class SweepService:
    """One service instance over one root directory (journal + cache)."""

    def __init__(
        self,
        root: str | Path,
        shards: int = 2,
        clock: Clock | None = None,
        registry: MetricsRegistry | None = None,
        poll_seconds: float = 0.05,
        tick_seconds: float = 0.25,
    ):
        self.root = Path(root)
        self.clock: Clock = clock if clock is not None else SystemClock()
        self.registry = registry if registry is not None else serve_registry()
        self.fingerprint = code_fingerprint()
        self.cache = ResultCache(self.root / CACHE_DIR, fingerprint=self.fingerprint)
        self.store = JobStore(self.root / JOBS_LOG)
        # Scheduler construction replays the job store: a restarted
        # service resumes every unfinished job, with in-flight leases
        # from the previous life implicitly expired (steal on restart).
        self.scheduler = Scheduler(
            self.store, self.clock, self.registry, fingerprint=self.fingerprint
        )
        self.shards = shards
        self.poll_seconds = poll_seconds
        self.tick_seconds = tick_seconds
        self._host: ThreadedWorkerHost | None = None
        self._tick_stop = threading.Event()
        self._tick_thread: threading.Thread | None = None

    # ------------------------------------------------------------------
    # Control plane (what the API exposes)
    # ------------------------------------------------------------------
    def submit(
        self,
        name: str,
        tasks: SubmitTasks,
        params: JobParams | None = None,
    ) -> dict[str, Any]:
        job, disposition = self.scheduler.submit(name, tasks, params)
        return {"job": job.job_id, "disposition": disposition, "state": job.state}

    def status(self, job_id: str) -> dict[str, Any]:
        return self.scheduler.status(job_id)

    def statuses(self) -> list[dict[str, Any]]:
        return self.scheduler.statuses()

    def cancel(self, job_id: str) -> dict[str, Any]:
        cancelled = self.scheduler.cancel(job_id)
        return {
            "job": job_id,
            "cancelled": cancelled,
            "state": self.scheduler.job(job_id).state,
        }

    def telemetry(self) -> dict[str, Any]:
        """Service-wide ops snapshot (``rose_serve_*`` registry)."""
        return self.registry.snapshot()

    def job_telemetry(self, job_id: str) -> dict[str, Any]:
        """Merged *mission* telemetry over a job's completed tasks.

        Streams: callable at any point in the job's life, covering
        whatever has completed so far.  Results are resolved from the
        cache; a completed task whose artifact was pruned just drops out
        of the merge (telemetry is monitoring, not identity — the
        report path, which *is* identity-bearing, hard-fails instead).
        """
        job = self.scheduler.job(job_id)
        snapshots = []
        for key in job.keys:
            record = job.records.get(key)
            if record is None or not record.ok:
                continue
            result = self.cache.get(key)
            if result is not None and result.obs is not None:
                snapshots.append(result.obs.metrics)
        return {
            "job": job_id,
            "state": job.state,
            "completed": len(job.records),
            "total": len(job.tasks),
            "mission_metrics": merge_snapshots(snapshots),
        }

    # ------------------------------------------------------------------
    # Report assembly (the bit-identity surface)
    # ------------------------------------------------------------------
    def report(self, job_id: str) -> SweepReport:
        """Assemble the job's :class:`SweepReport` from records + cache.

        Only ``done`` / ``failed`` jobs have a report (409 otherwise:
        queued/running jobs are incomplete, cancelled jobs never settled
        every task).  Outcomes are rebuilt in submission order; success
        records resolve their result from the content-addressed cache —
        a missing artifact is a 502, because the report would no longer
        reproduce what was computed.
        """
        job = self.scheduler.job(job_id)
        if job.state not in ("done", "failed"):
            raise ServeError(
                f"job {job_id!r} is {job.state}; a report exists only for "
                f"done/failed jobs",
                status=409,
            )
        outcomes: list[SweepOutcome] = []
        for (name, config), key in zip(job.tasks, job.keys):
            record = job.records[key]
            result = None
            failure = None
            if record.ok:
                result = self.cache.get(key)
                if result is None:
                    raise ServeError(
                        f"job {job_id!r}: result for task {name!r} is missing "
                        f"from the artifact cache (pruned or corrupt)",
                        status=502,
                    )
            elif record.failure is not None:
                failure = TaskFailure.from_dict(record.failure)
            outcomes.append(
                SweepOutcome(
                    name=name,
                    config=config,
                    result=result,
                    wall_seconds=0.0,
                    from_cache=record.state == "from_cache",
                    state=record.state,
                    attempts=record.attempts,
                    failure=failure,
                    owner=record.owner,
                )
            )
        finished = job.finished_at if job.finished_at is not None else job.submitted_at
        report = SweepReport(
            outcomes=outcomes,
            wall_seconds=max(0.0, finished - job.submitted_at),
            workers=len(job.owners()),
            fingerprint=self.fingerprint,
            # Identity discipline: the service report carries a *fresh*
            # (empty) sweep-registry snapshot, not the shards' merged ops
            # series — retries/steals/replays describe scheduling, and
            # report_signature must match the serial run's.
            sweep_metrics=sweep_registry().snapshot(),
        )
        report.cache_hits = self.cache.hits
        report.cache_misses = self.cache.misses
        report.cache_stores = self.cache.stores
        return report

    # ------------------------------------------------------------------
    # Execution plumbing
    # ------------------------------------------------------------------
    def worker(self, worker_id: str, **kwargs: Any) -> ShardWorker:
        """A hand-steppable shard worker (the deterministic harness)."""
        return ShardWorker(worker_id, self.scheduler, self.cache, **kwargs)

    def start(self) -> None:
        """Boot production serving: shard threads plus the tick loop."""
        if self._host is None:
            self._host = ThreadedWorkerHost(
                self.scheduler,
                self.cache,
                shards=self.shards,
                poll_seconds=self.poll_seconds,
            )
            self._host.start()
        if self._tick_thread is None:
            self._tick_stop.clear()
            self._tick_thread = threading.Thread(
                target=self._tick_loop, name="serve-tick", daemon=True
            )
            self._tick_thread.start()

    def _tick_loop(self) -> None:
        while not self._tick_stop.is_set():
            self.scheduler.tick()
            self._tick_stop.wait(self.tick_seconds)

    def close(self) -> None:
        if self._host is not None:
            self._host.stop()
            self._host = None
        if self._tick_thread is not None:
            self._tick_stop.set()
            self._tick_thread.join(timeout=10.0)
            self._tick_thread = None

    def wait(self, job_id: str, timeout: float = 60.0) -> dict[str, Any]:
        """Block until ``job_id`` reaches a terminal state (threaded mode).

        Polls on the service clock — under a :class:`FakeClock` this
        returns immediately after one check, so tests never hang; the
        deterministic harness drives workers by hand instead of waiting.
        """
        deadline = self.clock.now() + timeout
        while True:
            job = self.scheduler.job(job_id)
            if job.terminal:
                return self.status(job_id)
            if self.clock.now() >= deadline:
                raise ServeError(
                    f"job {job_id!r} still {job.state} after {timeout}s",
                    status=409,
                )
            self.clock.sleep(self.poll_seconds)

    def __enter__(self) -> "SweepService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def run_job_to_completion(
    service: SweepService, job_id: str, workers: int = 2, max_rounds: int = 100
) -> dict[str, Any]:
    """Drive a job with in-process workers until it settles (no threads).

    The synchronous execution path: used by the CLI's ``submit --wait``
    against an in-process service and by tests that want service
    semantics without the threaded host.  Workers are stepped round-robin
    so claims interleave the way the threaded host's shards would.
    """
    shard_workers = [service.worker(f"shard-{i}") for i in range(max(1, workers))]
    for _ in range(max_rounds):
        job = service.scheduler.job(job_id)
        if job.terminal:
            break
        service.scheduler.tick()
        progressed = False
        for worker in shard_workers:
            if worker.step():
                progressed = True
        if not progressed and not service.scheduler.job(job_id).terminal:
            raise ServeError(
                f"job {job_id!r} stalled: no worker could make progress",
                status=409,
            )
    return service.status(job_id)
