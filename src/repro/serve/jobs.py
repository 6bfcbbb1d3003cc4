"""Job model and the persistent, crash-safe job store (``rose-jobq/1``).

A *job* is one submitted sweep: an ordered task list (name + config),
execution parameters, and a map of per-task completion records.  The
:class:`JobStore` is the service's write-ahead log — every state
transition appends one fsync'd JSONL record (the same append discipline
as the sweep journal, shared via
:func:`repro.sweep.journal.append_jsonl`), so a killed server replays
the store on boot and resumes every unfinished job exactly where it
stopped.  Results themselves never live here: the content-addressed
:class:`~repro.sweep.cache.ResultCache` is the artifact store, which is
what makes shard execution idempotent and work-stealing safe.

Replay semantics are **last-event-wins** per (job, task key): a stolen
task that is completed twice (once by a zombie worker, once by the
thief) converges to a single record — the final event's attribution —
and completion accounting stays exactly-once because records are a map
keyed by config key, not an event count.

Job identity is content-addressed like the sweep journal's
``sweep_id``: code fingerprint + ordered (name, config-key) list.
Submitting the same sweep twice therefore *deduplicates* onto the
existing job instead of re-running it — idempotent submission for free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.core.config import CoSimConfig
from repro.core.manifest import config_from_dict, config_to_dict
from repro.errors import ServeError
from repro.sweep.journal import append_jsonl, read_jsonl, sweep_id
from repro.sweep.resilience import OUTCOME_STATES, SUCCESS_STATES

JOBQ_FORMAT = "rose-jobq/1"

#: Job lifecycle states.  ``queued`` and ``running`` are live;
#: ``done`` / ``failed`` / ``cancelled`` are terminal (``failed`` means
#: every task completed but at least one ended in a failure state).
JOB_STATES: tuple[str, ...] = ("queued", "running", "done", "failed", "cancelled")

TERMINAL_JOB_STATES: frozenset[str] = frozenset({"done", "failed", "cancelled"})


@dataclass(frozen=True)
class JobParams:
    """Execution knobs for one job (none of them enter result identity).

    ``shards`` is the intended parallel width: it sets the default claim
    slice (``ceil(tasks / shards)``) and how many shard workers the
    threaded host spins up.  The remaining knobs are passed through to
    each shard's supervised :class:`~repro.sweep.runner.SweepRunner`.

    Types are checked as strictly as ranges: the params arrive as JSON,
    and a value a shard cannot run (``slice_size=1.5``,
    ``task_timeout=0``) must be refused at submission — once journaled,
    it would kill every shard thread that leases the job, on every boot.
    """

    shards: int = 2
    slice_size: int | None = None
    workers: int = 1
    batch_size: int = 1
    task_timeout: float | None = None
    max_attempts: int = 3
    lease_seconds: float = 60.0

    def __post_init__(self) -> None:
        for name in ("shards", "workers", "batch_size", "max_attempts"):
            _check_count(name, getattr(self, name))
        if self.slice_size is not None:
            _check_count("slice_size", self.slice_size)
        if self.task_timeout is not None:
            _check_seconds("task_timeout", self.task_timeout)
        _check_seconds("lease_seconds", self.lease_seconds)

    def slice_for(self, task_count: int) -> int:
        """Tasks handed out per claim: explicit size, or an even shard cut."""
        if self.slice_size is not None:
            return self.slice_size
        return max(1, -(-task_count // self.shards))

    def to_dict(self) -> dict[str, Any]:
        return {
            "shards": self.shards,
            "slice_size": self.slice_size,
            "workers": self.workers,
            "batch_size": self.batch_size,
            "task_timeout": self.task_timeout,
            "max_attempts": self.max_attempts,
            "lease_seconds": self.lease_seconds,
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "JobParams":
        known = {f: payload[f] for f in cls.__dataclass_fields__ if f in payload}
        try:
            return cls(**known)
        except TypeError as exc:  # pragma: no cover - defensive
            raise ServeError(f"invalid job params: {exc}") from exc


def _check_count(name: str, value: object) -> None:
    """A count knob is an ``int`` >= 1 (``True`` and ``2.0`` are not ints)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ServeError(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise ServeError(f"{name} must be >= 1, got {value}")


def _check_seconds(name: str, value: object) -> None:
    """A duration knob is a finite number > 0."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ServeError(f"{name} must be a number, got {value!r}")
    if not math.isfinite(value) or value <= 0:
        raise ServeError(f"{name} must be finite and > 0, got {value}")


@dataclass(frozen=True)
class TaskRecord:
    """One task's terminal state, with shard/owner attribution."""

    name: str
    key: str
    state: str
    attempts: int
    owner: str
    failure: dict[str, Any] | None = None

    def __post_init__(self) -> None:
        if self.state not in OUTCOME_STATES:
            raise ServeError(
                f"unknown outcome state {self.state!r}; "
                f"expected one of {sorted(OUTCOME_STATES)}"
            )

    @property
    def ok(self) -> bool:
        return self.state in SUCCESS_STATES

    def to_dict(self) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "name": self.name,
            "key": self.key,
            "state": self.state,
            "attempts": self.attempts,
            "owner": self.owner,
        }
        if self.failure is not None:
            payload["failure"] = self.failure
        return payload

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "TaskRecord":
        return cls(
            name=str(payload["name"]),
            key=str(payload["key"]),
            state=str(payload["state"]),
            attempts=int(payload["attempts"]),
            owner=str(payload.get("owner", "")),
            failure=payload.get("failure"),
        )


def job_id_for(fingerprint: str, tasks: list[tuple[str, str]]) -> str:
    """Content identity of a job: fingerprint + ordered (name, key) list."""
    return sweep_id(fingerprint, tasks)[:16]


@dataclass
class Job:
    """One submitted sweep and everything the service knows about it."""

    job_id: str
    name: str
    tasks: list[tuple[str, CoSimConfig]]
    keys: list[str]
    params: JobParams
    state: str = "queued"
    records: dict[str, TaskRecord] = field(default_factory=dict)
    #: Monotonic clock stamps (operational only; never in result identity).
    submitted_at: float = 0.0
    finished_at: float | None = None

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_JOB_STATES

    def completed(self) -> int:
        return len(self.records)

    def counts(self) -> dict[str, int]:
        """Task accounting for status snapshots."""
        ok = sum(1 for record in self.records.values() if record.ok)
        return {
            "total": len(self.tasks),
            "completed": len(self.records),
            "ok": ok,
            "failed": len(self.records) - ok,
        }

    def owners(self) -> dict[str, int]:
        """Completed-task counts per shard worker (attribution summary)."""
        out: dict[str, int] = {}
        for key in self.keys:
            record = self.records.get(key)
            if record is not None:
                out[record.owner] = out.get(record.owner, 0) + 1
        return dict(sorted(out.items()))


class JobStore:
    """Append-only JSONL event log for the job queue (``rose-jobq/1``).

    Events (all fsync'd single-line appends):

    * ``submit``   — full job description (tasks carry their configs, so
      a restarted server can re-materialize and finish the sweep);
    * ``job_state`` — lifecycle transition;
    * ``task``     — one task completed (last-event-wins on replay);
    * ``lease`` / ``expire`` — operational trace of the shard lease /
      steal protocol (ignored by replay: leases never survive a crash —
      that is the point, an expired lease is how work gets stolen);
    * ``cancel``   — user-requested cancellation.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.appended = 0

    # ------------------------------------------------------------------
    def _append(self, record: dict[str, Any]) -> None:
        append_jsonl(self.path, record)
        self.appended += 1

    def record_submit(self, job: Job) -> None:
        self._append(
            {
                "format": JOBQ_FORMAT,
                "event": "submit",
                "job": job.job_id,
                "name": job.name,
                "params": job.params.to_dict(),
                "tasks": [
                    {
                        "name": task_name,
                        "key": key,
                        "config": config_to_dict(config),
                    }
                    for (task_name, config), key in zip(job.tasks, job.keys)
                ],
            }
        )

    def record_job_state(self, job_id: str, state: str) -> None:
        self._append({"event": "job_state", "job": job_id, "state": state})

    def record_task(self, job_id: str, record: TaskRecord) -> None:
        self._append({"event": "task", "job": job_id, **record.to_dict()})

    def record_lease(
        self,
        job_id: str,
        claim_id: int,
        worker: str,
        keys: list[str],
        expires: float,
        stolen_from: str | None,
    ) -> None:
        self._append(
            {
                "event": "lease",
                "job": job_id,
                "claim": claim_id,
                "worker": worker,
                "keys": keys,
                "expires": expires,
                "stolen_from": stolen_from,
            }
        )

    def record_expire(
        self, job_id: str, claim_id: int, worker: str, keys: list[str]
    ) -> None:
        self._append(
            {
                "event": "expire",
                "job": job_id,
                "claim": claim_id,
                "worker": worker,
                "keys": keys,
            }
        )

    def record_cancel(self, job_id: str) -> None:
        self._append({"event": "cancel", "job": job_id})

    # ------------------------------------------------------------------
    def replay(self) -> dict[str, Job]:
        """Rebuild the job table from the log (last-event-wins).

        Leases are *not* restored: any claim that was in flight when the
        server died is implicitly expired, so its tasks sit in the
        pending pool and the next worker to ask for work steals them.
        Terminal states replay in event order, so a ``cancel`` followed
        by a requeue (``job_state: queued``) nets out to queued —
        strictly last-event-wins.
        """
        jobs: dict[str, Job] = {}
        for record in read_jsonl(self.path):
            event = record.get("event")
            job_id = str(record.get("job", ""))
            if event == "submit":
                try:
                    tasks_payload = record["tasks"]
                    tasks = [
                        (str(entry["name"]), config_from_dict(dict(entry["config"])))
                        for entry in tasks_payload
                    ]
                    keys = [str(entry["key"]) for entry in tasks_payload]
                    params = JobParams.from_dict(dict(record.get("params", {})))
                except (KeyError, TypeError, ValueError, ServeError):
                    continue  # damaged submit record: job unrecoverable
                jobs[job_id] = Job(
                    job_id=job_id,
                    name=str(record.get("name", job_id)),
                    tasks=tasks,
                    keys=keys,
                    params=params,
                )
            elif event == "job_state" and job_id in jobs:
                state = str(record.get("state", ""))
                if state in JOB_STATES:
                    jobs[job_id].state = state
            elif event == "task" and job_id in jobs:
                try:
                    task_record = TaskRecord.from_dict(record)
                except (KeyError, TypeError, ValueError, ServeError):
                    continue  # damaged record: that task recomputes
                jobs[job_id].records[task_record.key] = task_record
            elif event == "cancel" and job_id in jobs:
                jobs[job_id].state = "cancelled"
        # A job whose journal says "running" but whose records already
        # cover every task finished right at the crash boundary: settle
        # its terminal state now instead of waiting for a worker.
        for job in jobs.values():
            if job.terminal:
                continue
            if len(job.records) == len(job.tasks) and job.tasks:
                all_ok = all(record.ok for record in job.records.values())
                job.state = "done" if all_ok else "failed"
        return jobs
