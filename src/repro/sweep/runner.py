"""The sweep engine: fan missions over processes, survive partial failure.

Execution discipline (the determinism contract):

* Every task is executed by the same module-level :func:`_execute_task`
  whether it runs serially in-process or inside a pool worker, and each
  execution first reseeds the *global* RNGs (``random``, legacy
  ``numpy.random``) from the task's config hash.  The simulation stack
  itself only uses explicitly-seeded generators, so this closes the one
  remaining door — ambient global-RNG use — and makes worker placement
  irrelevant: serial, 2-worker and 8-worker sweeps are bit-identical.
* Workers are forked (POSIX), so they inherit the parent's warmed
  module-level memos (graphs, worlds, classifier profiles) for free —
  those memos are immutable-after-construction.  Mutable per-process
  state (global RNG stream position, chaos bookkeeping) must *not* be
  inherited: every pool (re)spawn runs :func:`_pool_initializer`, which
  reseeds the globals and clears registered transient state.
* Cache lookups happen in the parent before any fan-out; only misses are
  simulated, and their results are stored back as they arrive.

Resilience discipline (the supervision contract):

* A task attempt that raises, hangs past the per-task timeout, or kills
  its worker process becomes a :class:`TaskFailure` on that task — never
  a sweep-killing exception in the parent.
* Failed attempts are retried under a deterministic
  :class:`~repro.sweep.resilience.RetryPolicy` (capped exponential
  backoff, jitter seeded from the config key); tasks that fail every
  permitted attempt are *quarantined* and reported, and the rest of the
  sweep completes.
* A broken pool (``BrokenProcessPool``: some worker died mid-task) is
  respawned and only the in-flight tasks are re-dispatched; completed
  results are never recomputed.  Attribution under a pool break is
  collective — every in-flight task is charged one attempt — so retry
  budgets should exceed the worst expected crash count.
* Every terminal outcome is appended to the crash-safe
  :class:`~repro.sweep.journal.SweepJournal` (when one is attached), so
  a killed sweep resumes instead of restarting.
"""

from __future__ import annotations

import multiprocessing
import os
import random
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor
from concurrent.futures import wait as futures_wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from multiprocessing.context import BaseContext
from time import perf_counter
from typing import Any, Callable, Iterable, Union

import numpy as np

from repro.batch.eligibility import BatchIneligible, batch_eligible, batch_group_key
from repro.batch.engine import run_batch
from repro.core.config import CoSimConfig
from repro.core.cosim import MissionResult, run_mission
from repro.core.timing import merge_timings
from repro.errors import ConfigError, SweepError
from repro.obs.aggregate import merge_snapshots
from repro.obs.declarations import sweep_registry
from repro.obs.metrics import MetricsRegistry
from repro.sweep import chaos
from repro.sweep.cache import CACHE_DIR_ENV, ResultCache
from repro.sweep.fingerprint import code_fingerprint, config_key
from repro.sweep.journal import SweepJournal
from repro.sweep.resilience import (
    SUCCESS_STATES,
    RetryPolicy,
    TaskFailure,
    backoff_sleep,
    wait_for,
)

#: Environment variable setting the default worker count (1 = serial).
WORKERS_ENV = "REPRO_SWEEP_WORKERS"

#: Environment variable setting the default batch size (1 = no batching).
BATCH_ENV = "REPRO_SWEEP_BATCH"

#: What :meth:`SweepRunner.run` accepts per task: an explicit
#: :class:`SweepTask`, a bare config (auto-named), or a (name, config) pair.
TaskLike = Union["SweepTask", CoSimConfig, tuple[str, CoSimConfig]]


@dataclass(frozen=True)
class SweepTask:
    """One named mission in a sweep."""

    name: str
    config: CoSimConfig


@dataclass
class SweepOutcome:
    """One task's terminal state plus how it was reached.

    ``state`` is one of :data:`~repro.sweep.resilience.OUTCOME_STATES`;
    success states (``ok`` / ``from_cache``) carry a ``result``, failure
    states carry the last attempt's ``failure`` and ``result is None``.
    """

    name: str
    config: CoSimConfig
    result: MissionResult | None
    wall_seconds: float
    from_cache: bool
    state: str = "ok"
    attempts: int = 1
    failure: TaskFailure | None = None
    #: Shard/worker attribution: which executor produced this terminal
    #: state.  ``None`` for anonymous single-host runs; the serve layer
    #: stamps its shard-worker id so a quarantined poison task names the
    #: worker that gave up on it.
    owner: str | None = None

    @property
    def ok(self) -> bool:
        return self.state in SUCCESS_STATES


@dataclass
class SweepReport:
    """Everything a sweep run produced, in task order."""

    outcomes: list[SweepOutcome]
    wall_seconds: float
    workers: int
    cache_hits: int = 0
    cache_misses: int = 0
    cache_stores: int = 0
    fingerprint: str | None = field(repr=False, default=None)
    # Resilience activity (also recorded as rose_sweep_* metrics).
    retries: int = 0
    timeouts: int = 0
    pool_crashes: int = 0
    quarantined: int = 0
    journal_replays: int = 0
    #: Batched-engine activity (cache misses run in lockstep groups).
    batched_missions: int = 0
    batch_chunks: int = 0
    #: Sweep-level metrics snapshot (rose_sweep_* / rose_cache_*),
    #: merged into :meth:`telemetry` alongside the mission snapshots.
    sweep_metrics: dict[str, Any] | None = field(repr=False, default=None)

    @property
    def ok(self) -> bool:
        """Every task reached a success state (result available)."""
        return all(outcome.ok for outcome in self.outcomes)

    def failures(self) -> list[SweepOutcome]:
        """Outcomes that ended in a failure state, in task order."""
        return [outcome for outcome in self.outcomes if not outcome.ok]

    def results(self) -> list[MissionResult]:
        """Every mission result, in task order.

        Raises :class:`~repro.errors.SweepError` if any task failed —
        callers that tolerate partial sweeps should walk ``outcomes``
        (or ``failures()``) instead of this convenience view.
        """
        failed = self.failures()
        if failed:
            summary = "; ".join(
                f"{o.name}: {o.state}"
                + (f" [owner {o.owner}]" if o.owner is not None else "")
                + (f" ({o.failure.describe()})" if o.failure is not None else "")
                for o in failed[:5]
            )
            raise SweepError(
                f"{len(failed)} of {len(self.outcomes)} sweep task(s) failed "
                f"after retries: {summary}"
            )
        return [outcome.result for outcome in self.outcomes if outcome.result]

    def stage_seconds(self) -> dict[str, float]:
        """Summed per-stage wall clock across executed (non-cached) missions."""
        return merge_timings(
            outcome.result.stage_timings
            for outcome in self.outcomes
            if outcome.result is not None and not outcome.from_cache
        )

    def telemetry(self) -> dict[str, object]:
        """The sweep's aggregated metrics snapshot (repro.obs).

        Merges every mission's flight-recorder snapshot — cache hits
        included, since their telemetry rides in the cached result —
        plus the sweep-level resilience snapshot into one
        registry-shaped dict.  The merge is associative and commutative,
        so worker count and placement cannot change it; on a fault-free
        run the resilience series are empty and the merged snapshot is
        exactly the serial run's value.
        """
        snapshots = [
            outcome.result.obs.metrics
            for outcome in self.outcomes
            if outcome.result is not None and outcome.result.obs is not None
        ]
        if self.sweep_metrics is not None:
            snapshots.append(self.sweep_metrics)
        return merge_snapshots(snapshots)


def _seed_worker(key: str) -> None:
    """Reseed the global RNGs deterministically from a config hash."""
    seed = int(key[:16], 16) % (2**32)
    random.seed(seed)
    np.random.seed(seed)


def _execute_task(
    item: tuple[str, CoSimConfig, str, int]
) -> tuple[str, MissionResult, float]:
    """Run one mission attempt (identical for serial and pooled execution).

    ``item`` carries the config's key, taken once by :meth:`SweepRunner.run`.
    The chaos hook fires *before* the mission and draws nothing from any
    RNG stream, so an injected-and-retried task replays bit-identically.
    """
    name, config, key, attempt = item
    _seed_worker(key)
    chaos.maybe_inject(key, attempt)
    t0 = perf_counter()
    result = run_mission(config)
    return name, result, perf_counter() - t0


def _execute_batch(
    configs: list[CoSimConfig], keys: list[str]
) -> tuple[list[MissionResult], float]:
    """Run one lockstep-compatible chunk on the batched engine.

    Mirrors :func:`_execute_task`'s discipline: the ambient global RNGs
    are reseeded deterministically (from the first lane's key — the
    simulation stack itself draws only from explicitly-seeded
    generators, so this closes the same door the serial path closes).
    Returns the per-lane results plus the chunk's wall time.
    """
    _seed_worker(keys[0])
    t0 = perf_counter()
    results = run_batch(configs)
    return results, perf_counter() - t0


#: Per-process transient state cleared on every pool (re)spawn.  Modules
#: with mutable process-scoped bookkeeping register a reset hook; the
#: deterministic memo caches (worlds, graphs, profiles) are deliberately
#: *not* here — inheriting them warm is the point of forking.
_TRANSIENT_RESETS: list[Callable[[], None]] = [chaos.reset_process_state]


def register_transient_reset(reset: Callable[[], None]) -> None:
    """Register per-process transient state to clear in pool workers."""
    _TRANSIENT_RESETS.append(reset)


def _pool_initializer(generation: int) -> None:
    """Fresh execution state for a newly (re)spawned pool worker.

    Forked workers inherit everything the parent process had: the warmed
    immutable memos we want, but also the parent's ambient global-RNG
    stream position and any per-process transient bookkeeping (chaos
    injection logs) we must not keep.  Reseed the globals from the pool
    generation and clear registered transient state; per-task reseeding
    in :func:`_execute_task` still runs afterwards — this closes the
    window before the first task and after every pool respawn.
    """
    seed = (0x5EED ^ generation) % (2**32)
    random.seed(seed)
    np.random.seed(seed)
    for reset in _TRANSIENT_RESETS:
        reset()


def _pool_context() -> BaseContext:
    """Fork where available so workers inherit warmed memo caches."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX fallback
        return multiprocessing.get_context()


@dataclass
class _Pending:
    """One task waiting to be (re)dispatched."""

    index: int
    task: SweepTask
    key: str
    attempt: int  # the attempt number the next dispatch will be (1-based)
    ready_at: float  # perf_counter time before which it must not dispatch
    failures: list[TaskFailure] = field(default_factory=list)


@dataclass
class _Flight:
    """One dispatched attempt: its pending record plus its deadline."""

    pending: _Pending
    deadline: float | None


class SweepRunner:
    """Runs a list of sweep tasks: parallel, cached, supervised, journaled."""

    def __init__(
        self,
        workers: int | None = None,
        cache: ResultCache | None = None,
        retry: RetryPolicy | None = None,
        task_timeout: float | None = None,
        journal: SweepJournal | None = None,
        resume: bool = False,
        batch_size: int | None = None,
        owner: str | None = None,
    ):
        self.workers = max(1, int(workers or 1))
        if batch_size is None:
            batch_size = int(os.environ.get(BATCH_ENV, "1") or "1")
        self.batch_size = max(1, int(batch_size))
        self.cache = cache
        self.retry = retry or RetryPolicy()
        if task_timeout is not None and task_timeout <= 0:
            raise ConfigError(f"task_timeout must be positive, got {task_timeout}")
        self.task_timeout = task_timeout
        self.journal = journal
        if resume and journal is None:
            raise ConfigError("resume=True requires a journal to replay")
        self.resume = resume
        #: Attribution label stamped on every outcome (and journaled with
        #: each task event).  The serve layer sets this to its shard
        #: worker id; plain single-host sweeps leave it ``None``.
        self.owner = owner

    # ------------------------------------------------------------------
    @staticmethod
    def _normalize(tasks: Iterable[TaskLike]) -> list[SweepTask]:
        normalized: list[SweepTask] = []
        for index, task in enumerate(tasks):
            if isinstance(task, SweepTask):
                normalized.append(task)
            elif isinstance(task, CoSimConfig):
                normalized.append(SweepTask(name=f"task{index}", config=task))
            else:
                name, config = task
                normalized.append(SweepTask(name=str(name), config=config))
        return normalized

    # ------------------------------------------------------------------
    def run(self, tasks: Iterable[TaskLike]) -> SweepReport:
        """Execute ``tasks`` (SweepTasks, configs, or ``(name, config)``).

        Outcomes preserve task order regardless of worker scheduling,
        retries, or pool respawns.
        """
        sweep_t0 = perf_counter()
        normalized = self._normalize(tasks)
        keys = [config_key(task.config) for task in normalized]
        outcomes: list[SweepOutcome | None] = [None] * len(normalized)
        registry = sweep_registry()

        replayed = self._journal_open(normalized, keys)

        # Cache pass: resolve hits in the parent, collect misses to run.
        misses: list[_Pending] = []
        for index, task in enumerate(normalized):
            cached = self.cache.get(keys[index]) if self.cache is not None else None
            if cached is not None:
                entry = replayed.get(keys[index])
                if entry is not None and entry.state in SUCCESS_STATES:
                    registry.inc("rose_sweep_journal_replays_total")
                outcomes[index] = SweepOutcome(
                    name=task.name,
                    config=task.config,
                    result=cached,
                    wall_seconds=0.0,
                    from_cache=True,
                    state="from_cache",
                    owner=self.owner,
                )
                if entry is None:
                    self._journal_task(task.name, keys[index], "from_cache", 1, None)
            else:
                misses.append(
                    _Pending(
                        index=index,
                        task=task,
                        key=keys[index],
                        attempt=1,
                        ready_at=0.0,
                    )
                )

        # Batch pre-pass: lockstep-compatible groups of cache misses run
        # on the batched engine in the parent; whatever it does not take
        # (ineligible, unpaired, or failed-over) continues to the normal
        # serial/pooled path below.  Under an active chaos plan every
        # task must pass through the per-attempt injection point, so
        # batching is disabled.
        if misses and self.batch_size > 1 and chaos.active_plan() is None:
            misses = self._run_batched(misses, outcomes, registry)

        workers = min(self.workers, max(1, len(misses)))
        if misses:
            if workers <= 1:
                self._run_serial(misses, outcomes, registry)
            else:
                self._run_pool(misses, outcomes, registry, workers)

        if self.cache is not None and self.cache.corrupt:
            registry.advance_to("rose_cache_corrupt_total", self.cache.corrupt)

        final = [outcome for outcome in outcomes if outcome is not None]
        report = SweepReport(
            outcomes=final,
            wall_seconds=perf_counter() - sweep_t0,
            workers=workers if misses else 0,
            retries=int(registry.total("rose_sweep_retries_total")),
            timeouts=int(registry.total("rose_sweep_timeouts_total")),
            pool_crashes=int(registry.total("rose_sweep_crashes_total")),
            quarantined=int(registry.total("rose_sweep_quarantined_total")),
            journal_replays=int(registry.total("rose_sweep_journal_replays_total")),
            batched_missions=int(
                registry.total("rose_sweep_batched_missions_total")
            ),
            batch_chunks=int(registry.total("rose_sweep_batch_chunks_total")),
            sweep_metrics=registry.snapshot(),
        )
        if self.cache is not None:
            report.cache_hits = self.cache.hits
            report.cache_misses = self.cache.misses
            report.cache_stores = self.cache.stores
            report.fingerprint = self.cache.fingerprint
        if self.journal is not None:
            self.journal.end(
                {
                    "ok": sum(1 for o in final if o.ok),
                    "failed": sum(1 for o in final if not o.ok),
                    "retries": report.retries,
                }
            )
        return report

    # ------------------------------------------------------------------
    # Journal plumbing
    # ------------------------------------------------------------------
    def _journal_open(
        self, tasks: list[SweepTask], keys: list[str]
    ) -> dict[str, Any]:
        """Begin (or resume) the journal; returns the replayed entries."""
        if self.journal is None:
            return {}
        fingerprint = (
            self.cache.fingerprint if self.cache is not None else code_fingerprint()
        )
        pairs = [(task.name, key) for task, key in zip(tasks, keys)]
        if self.resume:
            replayed = self.journal.replay()
            done = sum(
                1 for entry in replayed.values() if entry.state in SUCCESS_STATES
            )
            self.journal.resume(done)
            return replayed
        self.journal.begin(fingerprint, pairs, self.retry.to_dict())
        return {}

    def _journal_task(
        self,
        name: str,
        key: str,
        state: str,
        attempts: int,
        failure: TaskFailure | None,
    ) -> None:
        if self.journal is None:
            return
        self.journal.record_task(
            name,
            key,
            state,
            attempts,
            failure.to_dict() if failure is not None else None,
            owner=self.owner,
        )

    # ------------------------------------------------------------------
    # Outcome bookkeeping shared by the serial and pooled paths
    # ------------------------------------------------------------------
    def _complete(
        self,
        pending: _Pending,
        result: MissionResult,
        seconds: float,
        outcomes: list[SweepOutcome | None],
    ) -> None:
        outcomes[pending.index] = SweepOutcome(
            name=pending.task.name,
            config=pending.task.config,
            result=result,
            wall_seconds=seconds,
            from_cache=False,
            state="ok",
            attempts=pending.attempt,
            owner=self.owner,
        )
        if self.cache is not None:
            self.cache.put(pending.key, result)
        self._journal_task(pending.task.name, pending.key, "ok", pending.attempt, None)

    def _charge(
        self,
        pending: _Pending,
        kind: str,
        message: str,
        registry: MetricsRegistry,
        outcomes: list[SweepOutcome | None],
        now: float,
    ) -> _Pending | None:
        """Record a failed attempt; returns the retry record or ``None``.

        ``None`` means the task is terminal: its outcome slot is filled
        with the failure state and the journal gets the terminal event.
        """
        failure = TaskFailure(kind=kind, message=message, attempt=pending.attempt)
        pending.failures.append(failure)
        if kind == "timeout":
            registry.inc("rose_sweep_timeouts_total")
        if self.retry.allows_retry(pending.attempt):
            registry.inc("rose_sweep_retries_total")
            delay = self.retry.backoff_delay(pending.key, pending.attempt)
            return _Pending(
                index=pending.index,
                task=pending.task,
                key=pending.key,
                attempt=pending.attempt + 1,
                ready_at=now + delay,
                failures=pending.failures,
            )
        state = self.retry.terminal_state(kind)
        if state == "quarantined":
            registry.inc("rose_sweep_quarantined_total")
        outcomes[pending.index] = SweepOutcome(
            name=pending.task.name,
            config=pending.task.config,
            result=None,
            wall_seconds=0.0,
            from_cache=False,
            state=state,
            attempts=pending.attempt,
            failure=failure,
            owner=self.owner,
        )
        self._journal_task(
            pending.task.name, pending.key, state, pending.attempt, failure
        )
        return None

    # ------------------------------------------------------------------
    # Batched execution (lockstep engine, parent process)
    # ------------------------------------------------------------------
    def _run_batched(
        self,
        misses: list[_Pending],
        outcomes: list[SweepOutcome | None],
        registry: MetricsRegistry,
    ) -> list[_Pending]:
        """Run lockstep-compatible chunks of ``misses`` batched.

        Returns the tasks still pending for the serial/pooled path.  The
        batched engine is bit-identical to serial execution (enforced by
        the ``batch-vs-serial`` oracle), so completed lanes reuse the
        ordinary completion path — same cache writes, same journal
        events, same outcome shape.  A chunk the engine refuses mid-run
        (:class:`~repro.batch.eligibility.BatchIneligible`) goes to the
        serial/pooled path as it is: no attempt charged, not counted as
        batched.  Any other exception is an engine fault: every task of
        the chunk is charged one failed attempt, and the retries go to
        the supervised path.
        """
        remaining: list[_Pending] = []
        groups: dict[str, list[_Pending]] = {}
        for pending in misses:
            eligible, _reason = batch_eligible(pending.task.config)
            if eligible:
                groups.setdefault(
                    batch_group_key(pending.task.config), []
                ).append(pending)
            else:
                remaining.append(pending)
        for key in sorted(groups):
            group = groups[key]
            for lo in range(0, len(group), self.batch_size):
                chunk = group[lo : lo + self.batch_size]
                if len(chunk) < 2:
                    # A lone lane gains nothing from lockstep; let the
                    # normal path run it.
                    remaining.extend(chunk)
                    continue
                try:
                    results, seconds = _execute_batch(
                        [p.task.config for p in chunk], [p.key for p in chunk]
                    )
                except BatchIneligible:
                    remaining.extend(chunk)
                    continue
                except Exception as exc:  # noqa: BLE001 - taxonomy, not policy
                    message = f"batched engine: {type(exc).__name__}: {exc}"
                    now = perf_counter()
                    for pending in chunk:
                        retry = self._charge(
                            pending, "exception", message, registry, outcomes, now
                        )
                        if retry is not None:
                            remaining.append(retry)
                    continue
                registry.inc("rose_sweep_batch_chunks_total")
                registry.inc("rose_sweep_batched_missions_total", len(chunk))
                share = seconds / len(chunk)
                for pending, result in zip(chunk, results):
                    self._complete(pending, result, share, outcomes)
        remaining.sort(key=lambda p: p.index)
        return remaining

    # ------------------------------------------------------------------
    # Serial execution (in-process, retries with blocking backoff)
    # ------------------------------------------------------------------
    def _run_serial(
        self,
        misses: list[_Pending],
        outcomes: list[SweepOutcome | None],
        registry: MetricsRegistry,
    ) -> None:
        """In-process execution with retries.

        Worker exceptions are supervised exactly like the pooled path;
        crash and hang protection need process isolation, so chaos plans
        that inject those belong on the pooled path only.
        """
        for pending in misses:
            current: _Pending | None = pending
            while current is not None:
                item = (
                    current.task.name, current.task.config, current.key, current.attempt
                )
                try:
                    _, result, seconds = _execute_task(item)
                except Exception as exc:  # noqa: BLE001 - taxonomy, not policy
                    retry = self._charge(
                        current,
                        "exception",
                        f"{type(exc).__name__}: {exc}",
                        registry,
                        outcomes,
                        perf_counter(),
                    )
                    if retry is not None:
                        backoff_sleep(self.retry, current.key, current.attempt)
                    current = retry
                else:
                    self._complete(current, result, seconds, outcomes)
                    current = None

    # ------------------------------------------------------------------
    # Supervised pool execution
    # ------------------------------------------------------------------
    def _new_pool(self, workers: int, generation: int) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=workers,
            mp_context=_pool_context(),
            initializer=_pool_initializer,
            initargs=(generation,),
        )

    @staticmethod
    def _kill_pool(pool: ProcessPoolExecutor) -> None:
        """Tear a pool down even if a worker is wedged mid-task.

        ``shutdown`` alone would join the hung worker forever, so the
        worker processes are killed first.  ``_processes`` is CPython
        executor internals — there is no public "abandon this worker"
        API — accessed defensively so a layout change degrades to a
        plain shutdown rather than an error.
        """
        processes = getattr(pool, "_processes", None) or {}
        for process in list(processes.values()):
            try:
                process.kill()
            except (OSError, ValueError):  # pragma: no cover - already dead
                pass
        pool.shutdown(wait=False, cancel_futures=True)

    def _run_pool(
        self,
        misses: list[_Pending],
        outcomes: list[SweepOutcome | None],
        registry: MetricsRegistry,
        workers: int,
    ) -> None:
        queue: list[_Pending] = list(misses)
        generation = 0
        pool = self._new_pool(workers, generation)
        inflight: dict[Future[tuple[str, MissionResult, float]], _Flight] = {}

        def respawn() -> None:
            nonlocal generation, pool
            self._kill_pool(pool)
            generation += 1
            pool = self._new_pool(workers, generation)

        def requeue_inflight(charge_kind: str | None, now: float) -> None:
            """Drain in-flight tasks back onto the queue.

            With a ``charge_kind`` each drained task is charged one
            failed attempt (pool crash: attribution is collective);
            without one they are innocent victims of a sibling's
            timeout kill and re-dispatch at their current attempt.
            """
            for flight in list(inflight.values()):
                if charge_kind is None:
                    flight.pending.ready_at = now
                    queue.append(flight.pending)
                else:
                    retry = self._charge(
                        flight.pending,
                        charge_kind,
                        "worker pool broke while this task was in flight",
                        registry,
                        outcomes,
                        now,
                    )
                    if retry is not None:
                        queue.append(retry)
            inflight.clear()

        try:
            while queue or inflight:
                now = perf_counter()
                queue.sort(key=lambda p: (p.ready_at, p.index))

                # Dispatch every ready task into a free slot.
                while queue and len(inflight) < workers and queue[0].ready_at <= now:
                    pending = queue.pop(0)
                    item = (
                        pending.task.name, pending.task.config, pending.key, pending.attempt
                    )
                    try:
                        future = pool.submit(_execute_task, item)
                    except BrokenProcessPool:
                        # The pool died between waits: charge the flights,
                        # respawn, and let the main loop redispatch.
                        queue.append(pending)
                        registry.inc("rose_sweep_crashes_total")
                        requeue_inflight("pool_crash", now)
                        respawn()
                        break
                    deadline = (
                        now + self.task_timeout
                        if self.task_timeout is not None
                        else None
                    )
                    inflight[future] = _Flight(pending, deadline)

                if not inflight:
                    if queue:
                        # Every slot idle, nothing ready: park until the
                        # earliest backoff expires (blessed sleep site).
                        wait_for(max(0.0, queue[0].ready_at - perf_counter()))
                    continue

                # Wait for a completion, the next deadline, or the next
                # backoff expiry — whichever comes first.
                wake_times = [
                    flight.deadline
                    for flight in inflight.values()
                    if flight.deadline is not None
                ]
                if queue and len(inflight) < workers:
                    wake_times.append(queue[0].ready_at)
                timeout = (
                    max(0.0, min(wake_times) - perf_counter()) if wake_times else None
                )
                done, _ = futures_wait(
                    set(inflight), timeout=timeout, return_when=FIRST_COMPLETED
                )

                now = perf_counter()
                broken = False
                for future in done:
                    flight = inflight.pop(future)
                    exc = future.exception()
                    if exc is None:
                        _, result, seconds = future.result()
                        self._complete(flight.pending, result, seconds, outcomes)
                    elif isinstance(exc, BrokenProcessPool):
                        broken = True
                        retry = self._charge(
                            flight.pending,
                            "pool_crash",
                            str(exc) or "worker process died mid-task",
                            registry,
                            outcomes,
                            now,
                        )
                        if retry is not None:
                            queue.append(retry)
                    else:
                        retry = self._charge(
                            flight.pending,
                            "exception",
                            f"{type(exc).__name__}: {exc}",
                            registry,
                            outcomes,
                            now,
                        )
                        if retry is not None:
                            queue.append(retry)

                if broken:
                    # Every surviving flight is doomed with the pool.
                    registry.inc("rose_sweep_crashes_total")
                    requeue_inflight("pool_crash", now)
                    respawn()
                    continue

                # Deadline pass: kill hung attempts, spare the innocent.
                expired = [
                    future
                    for future, flight in inflight.items()
                    if flight.deadline is not None and now >= flight.deadline
                ]
                if expired:
                    for future in expired:
                        flight = inflight.pop(future)
                        retry = self._charge(
                            flight.pending,
                            "timeout",
                            f"attempt exceeded task_timeout={self.task_timeout}s",
                            registry,
                            outcomes,
                            now,
                        )
                        if retry is not None:
                            queue.append(retry)
                    # A hung worker cannot be reclaimed individually:
                    # recycle the pool; untimed-out flights re-dispatch
                    # without an attempt charge.
                    requeue_inflight(None, now)
                    respawn()
        finally:
            self._kill_pool(pool)


def sweep_missions(configs: Iterable[TaskLike]) -> list[MissionResult]:
    """Run configs through the sweep engine; results in input order.

    Drop-in replacement for ``[run_mission(c) for c in configs]``.  The
    knobs come from the environment: ``REPRO_SWEEP_WORKERS`` (default 1 =
    serial), ``REPRO_SWEEP_BATCH`` (default 1 = no batching) and
    ``REPRO_SWEEP_CACHE_DIR`` (caching stays off unless the directory is
    set — library callers opt in explicitly).
    Transient failures are retried under the default
    :class:`~repro.sweep.resilience.RetryPolicy`; a task that still
    fails raises :class:`~repro.errors.SweepError` from ``results()``.
    """
    workers = int(os.environ.get(WORKERS_ENV, "1") or "1")
    cache_dir = os.environ.get(CACHE_DIR_ENV)
    cache = ResultCache(cache_dir) if cache_dir else None
    return SweepRunner(workers=workers, cache=cache).run(configs).results()
