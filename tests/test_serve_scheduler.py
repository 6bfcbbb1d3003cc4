"""Tests for the serve control plane: job store, scheduler, lease/steal.

Covers the ``rose-jobq/1`` journal (replay, last-event-wins, damage
tolerance), content-addressed idempotent submission, the shard lease /
heartbeat / expiry / steal protocol, exactly-once completion accounting,
and — via Hypothesis — arbitrary submit/steal/complete/crash
interleavings preserving both exactly-once completion and replay
equivalence (a fresh scheduler over the same store reaches the same
state).  Everything here is pure accounting: no missions run, all time
comes from a :class:`FakeClock`.
"""

from __future__ import annotations

import itertools
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import CoSimConfig
from repro.errors import ServeError
from repro.serve import (
    FakeClock,
    JobParams,
    JobStore,
    Scheduler,
    TaskRecord,
    job_id_for,
)

FINGERPRINT = "test-fingerprint"

#: Short lease so steal scenarios need only a small clock advance.
FAST_PARAMS = JobParams(shards=2, lease_seconds=10.0)


def _tiny_config(seed: int = 0) -> CoSimConfig:
    return CoSimConfig(
        world="tunnel", target_velocity=3.0, max_sim_time=1.0, seed=seed
    )


def _pairs(n: int = 4) -> list[tuple[str, CoSimConfig]]:
    return [(f"seed{s}", _tiny_config(s)) for s in range(n)]


def _scheduler(tmp_path, clock=None) -> Scheduler:
    return Scheduler(
        JobStore(tmp_path / "jobs.jsonl"),
        clock=clock if clock is not None else FakeClock(),
        fingerprint=FINGERPRINT,
    )


def _finish(scheduler: Scheduler, worker: str = "shard-0") -> str:
    """Drain every pending task as ``ok`` through one worker."""
    while True:
        assignment = scheduler.lease(worker)
        if assignment is None:
            break
        for (name, _config), key in zip(assignment.tasks, assignment.keys):
            scheduler.complete(
                worker, assignment.job_id, assignment.claim_id, name, key, "ok", 1
            )
    return worker


# ---------------------------------------------------------------------------
# JobParams / TaskRecord / job identity
# ---------------------------------------------------------------------------
class TestJobParams:
    def test_defaults(self):
        params = JobParams()
        assert params.shards == 2
        assert params.max_attempts == 3
        assert params.lease_seconds == 60.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"shards": 0},
            {"slice_size": 0},
            {"workers": 0},
            {"batch_size": 0},
            {"max_attempts": 0},
            {"lease_seconds": 0.0},
            {"lease_seconds": -1.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ServeError):
            JobParams(**kwargs)

    def test_slice_for_even_shard_cut(self):
        assert JobParams(shards=2).slice_for(4) == 2
        assert JobParams(shards=2).slice_for(5) == 3  # ceil
        assert JobParams(shards=4).slice_for(2) == 1

    def test_slice_for_explicit_size_wins(self):
        assert JobParams(shards=2, slice_size=1).slice_for(100) == 1

    def test_dict_round_trip_ignores_unknown_fields(self):
        params = JobParams(shards=3, slice_size=2, task_timeout=5.0)
        payload = params.to_dict()
        payload["from_the_future"] = True
        assert JobParams.from_dict(payload) == params

    def test_from_dict_surfaces_validation_as_serve_error(self):
        with pytest.raises(ServeError):
            JobParams.from_dict({"shards": -1})


class TestTaskRecord:
    def test_round_trip(self):
        record = TaskRecord(
            name="seed0", key="abc", state="failed", attempts=3,
            owner="shard-1", failure={"kind": "exception", "message": "boom"},
        )
        assert TaskRecord.from_dict(record.to_dict()) == record

    def test_unknown_state_rejected(self):
        with pytest.raises(ServeError):
            TaskRecord(name="t", key="k", state="exploded", attempts=1, owner="w")

    def test_ok_covers_cache_hits(self):
        ok = TaskRecord(name="t", key="k", state="ok", attempts=1, owner="w")
        hit = TaskRecord(name="t", key="k", state="from_cache", attempts=0, owner="w")
        bad = TaskRecord(name="t", key="k", state="failed", attempts=3, owner="w")
        assert ok.ok and hit.ok and not bad.ok


class TestJobIdentity:
    def test_content_addressed(self):
        keys = [("a", "k1"), ("b", "k2")]
        assert job_id_for("fp", keys) == job_id_for("fp", keys)
        assert job_id_for("fp", keys) != job_id_for("fp2", keys)
        assert job_id_for("fp", keys) != job_id_for("fp", list(reversed(keys)))
        assert len(job_id_for("fp", keys)) == 16


# ---------------------------------------------------------------------------
# JobStore: the rose-jobq/1 write-ahead log
# ---------------------------------------------------------------------------
class TestJobStore:
    def test_submit_replay_preserves_task_order(self, tmp_path):
        scheduler = _scheduler(tmp_path)
        job, _ = scheduler.submit("sweep", _pairs(5), FAST_PARAMS)
        replayed = scheduler.store.replay()[job.job_id]
        assert [name for name, _ in replayed.tasks] == [
            f"seed{s}" for s in range(5)
        ]
        assert replayed.keys == job.keys
        assert replayed.params == FAST_PARAMS

    def test_task_replay_is_last_event_wins(self, tmp_path):
        scheduler = _scheduler(tmp_path)
        job, _ = scheduler.submit("sweep", _pairs(2), FAST_PARAMS)
        key = job.keys[0]
        store = scheduler.store
        store.record_task(
            job.job_id,
            TaskRecord(name="seed0", key=key, state="failed", attempts=3,
                       owner="shard-0", failure={"kind": "exception"}),
        )
        store.record_task(
            job.job_id,
            TaskRecord(name="seed0", key=key, state="ok", attempts=1,
                       owner="shard-1"),
        )
        record = store.replay()[job.job_id].records[key]
        assert record.state == "ok"
        assert record.owner == "shard-1"

    def test_cancel_then_requeue_nets_queued(self, tmp_path):
        scheduler = _scheduler(tmp_path)
        job, _ = scheduler.submit("sweep", _pairs(2), FAST_PARAMS)
        store = scheduler.store
        store.record_cancel(job.job_id)
        store.record_job_state(job.job_id, "cancelled")
        store.record_job_state(job.job_id, "queued")
        assert store.replay()[job.job_id].state == "queued"

    def test_torn_trailing_line_tolerated(self, tmp_path):
        scheduler = _scheduler(tmp_path)
        job, _ = scheduler.submit("sweep", _pairs(2), FAST_PARAMS)
        with scheduler.store.path.open("a") as handle:
            handle.write('{"event": "task", "job": "' + job.job_id)  # torn
        replayed = scheduler.store.replay()
        assert replayed[job.job_id].state == "queued"
        assert replayed[job.job_id].records == {}

    def test_damaged_task_record_recomputes(self, tmp_path):
        scheduler = _scheduler(tmp_path)
        job, _ = scheduler.submit("sweep", _pairs(2), FAST_PARAMS)
        with scheduler.store.path.open("a") as handle:
            handle.write(
                json.dumps({"event": "task", "job": job.job_id, "name": "seed0"})
                + "\n"
            )  # missing key/state/attempts: skipped, task recomputes
        assert scheduler.store.replay()[job.job_id].records == {}

    def test_crash_at_finish_boundary_settles_terminal_state(self, tmp_path):
        """All tasks recorded but the job_state append was lost: replay
        settles the job instead of leaving a zombie 'running' entry."""
        scheduler = _scheduler(tmp_path)
        job, _ = scheduler.submit("sweep", _pairs(2), FAST_PARAMS)
        store = scheduler.store
        store.record_job_state(job.job_id, "running")
        for (name, _config), key in zip(job.tasks, job.keys):
            store.record_task(
                job.job_id,
                TaskRecord(name=name, key=key, state="ok", attempts=1,
                           owner="shard-0"),
            )
        assert store.replay()[job.job_id].state == "done"

    def test_leases_never_survive_replay(self, tmp_path):
        clock = FakeClock()
        scheduler = _scheduler(tmp_path, clock)
        job, _ = scheduler.submit("sweep", _pairs(4), FAST_PARAMS)
        assert scheduler.lease("shard-0") is not None
        rebuilt = _scheduler(tmp_path, FakeClock())
        # The in-flight lease is implicitly expired: all four tasks pend.
        assert rebuilt.status(job.job_id)["pending"] == 4
        assert rebuilt.status(job.job_id)["leases"] == []


# ---------------------------------------------------------------------------
# Submission: content-addressed, idempotent
# ---------------------------------------------------------------------------
class TestSubmission:
    def test_new_job_is_submitted(self, tmp_path):
        scheduler = _scheduler(tmp_path)
        job, disposition = scheduler.submit("sweep", _pairs(), FAST_PARAMS)
        assert disposition == "submitted"
        assert job.state == "queued"
        assert scheduler.registry.value(
            "rose_serve_jobs_submitted_total", result="submitted"
        ) == 1

    def test_resubmission_deduplicates(self, tmp_path):
        scheduler = _scheduler(tmp_path)
        first, _ = scheduler.submit("sweep", _pairs(), FAST_PARAMS)
        second, disposition = scheduler.submit("other-name", _pairs(), FAST_PARAMS)
        assert disposition == "deduplicated"
        assert second.job_id == first.job_id
        assert scheduler.store.appended == 1  # only the first submit logged

    def test_different_content_different_job(self, tmp_path):
        scheduler = _scheduler(tmp_path)
        first, _ = scheduler.submit("sweep", _pairs(3), FAST_PARAMS)
        second, disposition = scheduler.submit("sweep", _pairs(4), FAST_PARAMS)
        assert disposition == "submitted"
        assert second.job_id != first.job_id

    def test_empty_submission_rejected(self, tmp_path):
        with pytest.raises(ServeError):
            _scheduler(tmp_path).submit("sweep", [], FAST_PARAMS)

    def test_duplicate_task_names_rejected(self, tmp_path):
        with pytest.raises(ServeError):
            _scheduler(tmp_path).submit(
                "sweep", [("dup", _tiny_config(0)), ("dup", _tiny_config(1))]
            )

    def test_cancelled_job_requeues_keeping_ok_records(self, tmp_path):
        scheduler = _scheduler(tmp_path)
        job, _ = scheduler.submit("sweep", _pairs(4), JobParams(slice_size=2))
        assignment = scheduler.lease("shard-0")
        for (name, _config), key in zip(assignment.tasks, assignment.keys):
            scheduler.complete(
                "shard-0", job.job_id, assignment.claim_id, name, key, "ok", 1
            )
        assert scheduler.cancel(job.job_id)
        requeued, disposition = scheduler.submit("sweep", _pairs(4),
                                                 JobParams(slice_size=2))
        assert disposition == "requeued"
        assert requeued.state == "queued"
        assert requeued.completed() == 2  # ok records survive the requeue
        assert scheduler.status(job.job_id)["pending"] == 2


# ---------------------------------------------------------------------------
# Leasing, heartbeats, expiry, stealing
# ---------------------------------------------------------------------------
class TestLeaseProtocol:
    def test_lease_slices_in_submission_order(self, tmp_path):
        scheduler = _scheduler(tmp_path)
        job, _ = scheduler.submit("sweep", _pairs(4), FAST_PARAMS)
        first = scheduler.lease("shard-0")
        second = scheduler.lease("shard-1")
        assert [name for name, _ in first.tasks] == ["seed0", "seed1"]
        assert [name for name, _ in second.tasks] == ["seed2", "seed3"]
        assert first.stolen_from is None
        assert scheduler.job(job.job_id).state == "running"
        assert scheduler.lease("shard-2") is None  # nothing left to lease

    def test_lease_deadline_and_heartbeat(self, tmp_path):
        clock = FakeClock()
        scheduler = _scheduler(tmp_path, clock)
        scheduler.submit("sweep", _pairs(2), FAST_PARAMS)
        assignment = scheduler.lease("shard-0")
        assert assignment.deadline == pytest.approx(clock.now() + 10.0)
        clock.advance(6.0)
        assert scheduler.heartbeat("shard-0", assignment.claim_id)
        clock.advance(6.0)  # 12s total: dead without the heartbeat
        assert scheduler.tick() == 0
        assert scheduler.heartbeat("shard-1", assignment.claim_id) is False

    def test_expiry_steals_to_front_with_provenance(self, tmp_path):
        clock = FakeClock()
        scheduler = _scheduler(tmp_path, clock)
        job, _ = scheduler.submit("sweep", _pairs(4), FAST_PARAMS)
        doomed = scheduler.lease("shard-0")  # seed0, seed1
        clock.advance(11.0)
        assert scheduler.tick() == 1
        assert scheduler.heartbeat("shard-0", doomed.claim_id) is False
        stolen = scheduler.lease("shard-1")
        # Stolen work runs before the untouched tail, in task order.
        assert [name for name, _ in stolen.tasks] == ["seed0", "seed1"]
        assert stolen.stolen_from == "shard-0"
        assert scheduler.status(job.job_id)["steals"] == 2
        assert scheduler.registry.value("rose_serve_tasks_stolen_total") == 2
        assert scheduler.registry.value("rose_serve_leases_expired_total") == 1

    def test_expiry_returns_only_unrecorded_tasks(self, tmp_path):
        clock = FakeClock()
        scheduler = _scheduler(tmp_path, clock)
        job, _ = scheduler.submit("sweep", _pairs(2), FAST_PARAMS)
        assignment = scheduler.lease("shard-0")
        name, _config = assignment.tasks[0]
        scheduler.complete(
            "shard-0", job.job_id, assignment.claim_id, name,
            assignment.keys[0], "ok", 1,
        )
        clock.advance(11.0)
        scheduler.tick()
        stolen = scheduler.lease("shard-1")
        assert [name for name, _ in stolen.tasks] == ["seed1"]

    def test_completion_renews_the_lease(self, tmp_path):
        clock = FakeClock()
        scheduler = _scheduler(tmp_path, clock)
        job, _ = scheduler.submit("sweep", _pairs(4), FAST_PARAMS)
        assignment = scheduler.lease("shard-0")
        clock.advance(9.0)
        scheduler.complete(
            "shard-0", job.job_id, assignment.claim_id,
            assignment.tasks[0][0], assignment.keys[0], "ok", 1,
        )
        clock.advance(9.0)  # 18s since lease, 9s since the completion
        assert scheduler.tick() == 0


# ---------------------------------------------------------------------------
# Completion: exactly-once accounting
# ---------------------------------------------------------------------------
class TestCompletion:
    def test_all_ok_finalizes_done(self, tmp_path):
        scheduler = _scheduler(tmp_path)
        job, _ = scheduler.submit("sweep", _pairs(3), FAST_PARAMS)
        _finish(scheduler)
        final = scheduler.job(job.job_id)
        assert final.state == "done"
        assert final.counts() == {"total": 3, "completed": 3, "ok": 3, "failed": 0}
        assert scheduler.registry.value(
            "rose_serve_jobs_finished_total", state="done"
        ) == 1

    def test_any_failure_finalizes_failed(self, tmp_path):
        scheduler = _scheduler(tmp_path)
        job, _ = scheduler.submit("sweep", _pairs(2), JobParams(slice_size=2))
        assignment = scheduler.lease("shard-0")
        scheduler.complete(
            "shard-0", job.job_id, assignment.claim_id,
            assignment.tasks[0][0], assignment.keys[0], "ok", 1,
        )
        scheduler.complete(
            "shard-0", job.job_id, assignment.claim_id,
            assignment.tasks[1][0], assignment.keys[1], "failed", 3,
            failure={"kind": "exception", "message": "boom"},
        )
        assert scheduler.job(job.job_id).state == "failed"

    def test_unknown_job_404(self, tmp_path):
        scheduler = _scheduler(tmp_path)
        with pytest.raises(ServeError) as excinfo:
            scheduler.complete("w", "nope", 1, "t", "k", "ok", 1)
        assert excinfo.value.status == 404

    def test_unknown_key_400(self, tmp_path):
        scheduler = _scheduler(tmp_path)
        job, _ = scheduler.submit("sweep", _pairs(2), FAST_PARAMS)
        scheduler.lease("shard-0")
        with pytest.raises(ServeError) as excinfo:
            scheduler.complete(
                "shard-0", job.job_id, 1, "t", "not-a-real-key", "ok", 1
            )
        assert excinfo.value.status == 400

    def test_zombie_completion_after_terminal_is_dropped(self, tmp_path):
        scheduler = _scheduler(tmp_path)
        job, _ = scheduler.submit("sweep", _pairs(2), FAST_PARAMS)
        assignment = scheduler.lease("shard-0")
        scheduler.complete(
            "shard-0", job.job_id, assignment.claim_id,
            assignment.tasks[0][0], assignment.keys[0], "ok", 1,
        )
        _finish(scheduler, "shard-0")
        assert scheduler.job(job.job_id).state == "done"
        accepted = scheduler.complete(
            "zombie", job.job_id, assignment.claim_id,
            assignment.tasks[0][0], assignment.keys[0], "failed", 1,
            failure={"kind": "exception"},
        )
        assert accepted is False
        assert scheduler.job(job.job_id).state == "done"  # never reopened
        assert scheduler.job(job.job_id).records[assignment.keys[0]].ok

    def test_double_report_during_lease_race_is_last_event_wins(self, tmp_path):
        """A zombie whose lease expired reports after the thief: one
        record per key, thief's result overwritten by the final event,
        and the job still completes exactly once."""
        clock = FakeClock()
        scheduler = _scheduler(tmp_path, clock)
        job, _ = scheduler.submit("sweep", _pairs(4), FAST_PARAMS)
        zombie = scheduler.lease("shard-0")
        clock.advance(11.0)
        scheduler.tick()  # shard-0 presumed dead
        thief = scheduler.lease("shard-1")
        assert thief.stolen_from == "shard-0"
        key = thief.keys[0]
        scheduler.complete("shard-1", job.job_id, thief.claim_id,
                           thief.tasks[0][0], key, "ok", 1)
        # The zombie wakes up and reports the same task.
        assert scheduler.complete("shard-0", job.job_id, zombie.claim_id,
                                  zombie.tasks[0][0], key, "from_cache", 0)
        record = scheduler.job(job.job_id).records[key]
        assert record.owner == "shard-0"  # last event wins
        assert scheduler.job(job.job_id).completed() == 1  # still one record
        scheduler.complete("shard-1", job.job_id, thief.claim_id,
                           thief.tasks[1][0], thief.keys[1], "ok", 1)
        _finish(scheduler, "shard-1")
        assert scheduler.job(job.job_id).state == "done"

    def test_owner_attribution_in_status(self, tmp_path):
        scheduler = _scheduler(tmp_path)
        job, _ = scheduler.submit("sweep", _pairs(4), FAST_PARAMS)
        for worker in ("shard-0", "shard-1"):
            assignment = scheduler.lease(worker)
            for (name, _config), key in zip(assignment.tasks, assignment.keys):
                scheduler.complete(worker, job.job_id, assignment.claim_id,
                                   name, key, "ok", 1)
        assert scheduler.status(job.job_id)["owners"] == {
            "shard-0": 2, "shard-1": 2,
        }


# ---------------------------------------------------------------------------
# Cancellation and introspection
# ---------------------------------------------------------------------------
class TestCancel:
    def test_cancel_live_job(self, tmp_path):
        scheduler = _scheduler(tmp_path)
        job, _ = scheduler.submit("sweep", _pairs(2), FAST_PARAMS)
        scheduler.lease("shard-0")
        assert scheduler.cancel(job.job_id)
        assert scheduler.job(job.job_id).state == "cancelled"
        assert scheduler.status(job.job_id)["leases"] == []
        assert scheduler.lease("shard-1") is None

    def test_cancel_terminal_job_is_noop(self, tmp_path):
        scheduler = _scheduler(tmp_path)
        job, _ = scheduler.submit("sweep", _pairs(2), FAST_PARAMS)
        _finish(scheduler)
        assert scheduler.cancel(job.job_id) is False
        assert scheduler.job(job.job_id).state == "done"

    def test_cancel_unknown_job_404(self, tmp_path):
        with pytest.raises(ServeError) as excinfo:
            _scheduler(tmp_path).cancel("nope")
        assert excinfo.value.status == 404

    def test_status_is_json_safe(self, tmp_path):
        scheduler = _scheduler(tmp_path)
        job, _ = scheduler.submit("sweep", _pairs(3), FAST_PARAMS)
        scheduler.lease("shard-0")
        payload = scheduler.status(job.job_id)
        assert json.loads(json.dumps(payload)) == payload
        assert payload["tasks"]["total"] == 3
        assert payload["leases"][0]["worker"] == "shard-0"


# ---------------------------------------------------------------------------
# Property: interleavings preserve exactly-once + replay equivalence
# ---------------------------------------------------------------------------
_CASE_COUNTER = itertools.count()

_OPS = st.lists(
    st.sampled_from(
        ["lease0", "lease1", "complete0", "complete1",
         "advance", "tick", "zombie", "cancel_resubmit"]
    ),
    max_size=25,
)


def _record_view(job) -> dict[str, tuple[str, int, str]]:
    return {
        key: (record.state, record.attempts, record.owner)
        for key, record in job.records.items()
    }


class TestSchedulerProperties:
    @settings(
        deadline=None,
        max_examples=40,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(n=st.integers(min_value=2, max_value=5), ops=_OPS)
    def test_interleavings_preserve_exactly_once_and_replay(
        self, tmp_path, n, ops
    ):
        root = tmp_path / f"case-{next(_CASE_COUNTER)}"
        root.mkdir()
        clock = FakeClock()
        scheduler = _scheduler(root, clock)
        params = JobParams(shards=2, slice_size=2, lease_seconds=10.0)
        job, _ = scheduler.submit("sweep", _pairs(n), params)
        live: dict[str, list[dict]] = {"shard-0": [], "shard-1": []}
        zombies: list[dict] = []

        def complete_from(worker: str, entry: dict) -> None:
            pair = entry["left"].pop(0)
            (name, _config), key = pair
            scheduler.complete(
                worker, job.job_id, entry["claim"], name, key, "ok", 1
            )

        for op in ops:
            if op in ("lease0", "lease1"):
                worker = f"shard-{op[-1]}"
                assignment = scheduler.lease(worker)
                if assignment is not None:
                    live[worker].append({
                        "claim": assignment.claim_id,
                        "left": list(zip(assignment.tasks, assignment.keys)),
                    })
            elif op in ("complete0", "complete1"):
                worker = f"shard-{op[-1]}"
                entries = [e for e in live[worker] if e["left"]]
                if entries:
                    complete_from(worker, entries[0])
            elif op == "advance":
                # Every live claim's lease lapses: its holder is now a
                # zombie that may still report stale completions later.
                clock.advance(11.0)
                for worker in ("shard-0", "shard-1"):
                    zombies.extend(
                        {**entry, "worker": worker} for entry in live[worker]
                    )
                    live[worker] = []
            elif op == "tick":
                scheduler.tick()
            elif op == "zombie":
                stale = [z for z in zombies if z["left"]]
                if stale and not scheduler.job(job.job_id).terminal:
                    entry = stale[0]
                    complete_from(entry["worker"], entry)
            elif op == "cancel_resubmit":
                if scheduler.cancel(job.job_id):
                    live = {"shard-0": [], "shard-1": []}
                    zombies = []
                    _, disposition = scheduler.submit("sweep", _pairs(n), params)
                    assert disposition == "requeued"

            # Invariant: a key is never pending and claimed at once, and
            # no two live claims overlap (exactly-once dispatch).
            seen: set[int] = set(scheduler._pending[job.job_id])
            assert len(seen) == len(scheduler._pending[job.job_id])
            for claim in scheduler._claims.values():
                for index in claim.indices:
                    assert index not in seen
                    seen.add(index)

        # Drain to terminal with a surviving worker.
        clock.advance(11.0)
        scheduler.tick()
        _finish(scheduler, "shard-1")
        final = scheduler.job(job.job_id)
        assert final.state == "done"
        assert final.completed() == n
        assert sum(final.owners().values()) == n

        # Replay equivalence: a fresh scheduler over the same store
        # reaches the same terminal state and the same records.
        rebuilt = _scheduler(root, FakeClock())
        replayed = rebuilt.job(job.job_id)
        assert replayed.state == final.state
        assert _record_view(replayed) == _record_view(final)
        assert rebuilt.status(job.job_id)["pending"] == 0

    @settings(
        deadline=None,
        max_examples=25,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        crash_points=st.lists(
            st.integers(min_value=0, max_value=5), min_size=1, max_size=4
        )
    )
    def test_restart_at_any_point_resumes_to_same_result(
        self, tmp_path, crash_points
    ):
        """Kill the whole service after N completions, rebuild from the
        store, finish — the terminal record set is always the same."""
        root = tmp_path / f"case-{next(_CASE_COUNTER)}"
        root.mkdir()
        n = 5
        params = JobParams(shards=2, slice_size=1, lease_seconds=10.0)
        scheduler = _scheduler(root, FakeClock())
        job, _ = scheduler.submit("sweep", _pairs(n), params)
        for budget in crash_points:
            completed = 0
            while completed < budget:
                assignment = scheduler.lease("shard-0")
                if assignment is None:
                    break
                (name, _config), key = assignment.tasks[0], assignment.keys[0]
                scheduler.complete("shard-0", job.job_id, assignment.claim_id,
                                   name, key, "ok", 1)
                completed += 1
            # Crash: a brand-new scheduler replays the same store.
            scheduler = _scheduler(root, FakeClock())
        _finish(scheduler, "shard-1")
        final = scheduler.job(job.job_id)
        assert final.state == "done"
        assert sorted(final.records) == sorted(job.keys)
