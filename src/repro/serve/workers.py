"""Shard workers: lease a slice, run it through the sweep engine, report.

A :class:`ShardWorker` is the service's data plane.  Each ``step()``
asks the scheduler for one claim, executes the leased tasks through the
*existing* supervised :class:`~repro.sweep.runner.SweepRunner` — same
retries, timeouts, batching, chaos hooks, and determinism discipline as
a single-host sweep — and reports each terminal outcome back.  The
shared content-addressed :class:`~repro.sweep.cache.ResultCache` is the
artifact store: results land there before the completion report, so a
worker that dies between executing and reporting loses only
*accounting*, never *work* — the thief that re-leases the slice resolves
it from cache instantly.

Workers are deliberately dumb about time: they heartbeat through the
scheduler and never read a clock.  The deterministic harness drives
``step()`` by hand; production serving wraps workers in a
:class:`ThreadedWorkerHost`, one polling thread per shard.
"""

from __future__ import annotations

import threading
from typing import Callable

from repro.serve.jobs import JobParams
from repro.serve.scheduler import Assignment, Scheduler
from repro.sweep.cache import ResultCache
from repro.sweep.resilience import RetryPolicy
from repro.sweep.runner import SweepRunner


class ShardWorker:
    """One shard: leases claims, executes them, reports completions.

    ``abort`` is a fault-injection seam for the service test harness: it
    is consulted after the lease is granted and again before each
    per-task completion report.  Returning ``True`` makes the worker
    vanish mid-claim without reporting — exactly what a killed shard
    process looks like to the scheduler — so the kill-a-shard /
    steal-its-work scenario is reproducible without real processes or
    real time.
    """

    def __init__(
        self,
        worker_id: str,
        scheduler: Scheduler,
        cache: ResultCache,
        abort: Callable[[], bool] | None = None,
    ):
        self.worker_id = worker_id
        self.scheduler = scheduler
        self.cache = cache
        self.abort = abort
        self.claims_run = 0
        self.tasks_reported = 0

    # ------------------------------------------------------------------
    def _runner(self, params: JobParams) -> SweepRunner:
        """A supervised sweep runner configured from the job's params.

        No journal: the service's job store *is* the completion log, and
        the shared cache already makes re-execution after a crash cheap.
        The worker id rides along as the runner's ``owner`` so every
        outcome (and the job store's task records) carries shard
        attribution.
        """
        return SweepRunner(
            workers=params.workers,
            cache=self.cache,
            retry=RetryPolicy(max_attempts=params.max_attempts),
            task_timeout=params.task_timeout,
            batch_size=params.batch_size,
            owner=self.worker_id,
        )

    def step(self) -> bool:
        """Lease and execute one claim; ``False`` when no work exists."""
        assignment = self.scheduler.lease(self.worker_id)
        if assignment is None:
            return False
        self.claims_run += 1
        if self.abort is not None and self.abort():
            return True  # died holding the lease; expiry will free it
        self._execute(assignment)
        return True

    def _execute(self, assignment: Assignment) -> None:
        report = self._runner(assignment.params).run(assignment.tasks)
        # Renew the lease before the report loop: execution was the slow
        # part, and a completion storm should not race its own deadline.
        self.scheduler.heartbeat(self.worker_id, assignment.claim_id)
        # Outcomes keep task order, so each one's key is already in hand.
        for key, outcome in zip(assignment.keys, report.outcomes, strict=True):
            if self.abort is not None and self.abort():
                return  # died mid-report; unreported tasks get stolen
            self.scheduler.complete(
                worker=self.worker_id,
                job_id=assignment.job_id,
                claim_id=assignment.claim_id,
                name=outcome.name,
                key=key,
                state=outcome.state,
                attempts=outcome.attempts,
                failure=(
                    outcome.failure.to_dict()
                    if outcome.failure is not None
                    else None
                ),
            )
            self.tasks_reported += 1

    def drain(self, max_claims: int | None = None) -> int:
        """Run ``step()`` until the scheduler has nothing for us.

        Returns how many claims were executed.  ``max_claims`` bounds
        the loop for tests that want to stop a worker mid-sweep.
        """
        ran = 0
        while max_claims is None or ran < max_claims:
            if not self.step():
                break
            ran += 1
        return ran


class ThreadedWorkerHost:
    """Production serving: one polling thread per shard worker.

    Threads (not processes) because the heavy lifting already happens in
    each shard's SweepRunner — which forks its own process pool when
    ``params.workers > 1`` — so host threads spend their lives blocked
    in ``run()`` or idling on the poll interval, and the scheduler's
    lock sees only brief, coarse-grained critical sections.
    """

    def __init__(
        self,
        scheduler: Scheduler,
        cache: ResultCache,
        shards: int = 2,
        poll_seconds: float = 0.05,
    ):
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        self.scheduler = scheduler
        self.cache = cache
        self.shards = shards
        self.poll_seconds = poll_seconds
        self.workers = [
            ShardWorker(f"shard-{i}", scheduler, cache) for i in range(shards)
        ]
        self._stop = threading.Event()
        self._threads: list[threading.Thread] = []

    def start(self) -> None:
        if self._threads:
            return
        self._stop.clear()
        for worker in self.workers:
            thread = threading.Thread(
                target=self._serve, args=(worker,), name=worker.worker_id, daemon=True
            )
            thread.start()
            self._threads.append(thread)

    def _serve(self, worker: ShardWorker) -> None:
        while not self._stop.is_set():
            if not worker.step():
                # Idle: park on the stop event, which doubles as the
                # poll timer — no bare sleeps (lint rule SRV001).
                self._stop.wait(self.poll_seconds)

    def stop(self, timeout: float = 10.0) -> None:
        self._stop.set()
        for thread in self._threads:
            thread.join(timeout=timeout)
        self._threads = []
