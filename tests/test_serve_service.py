"""End-to-end tests for the sweep service (deterministic harness).

The service harness runs entirely in-process: a :class:`FakeClock`
drives lease expiry, shard workers are stepped by hand, and the
kill-a-shard scenario uses the worker's ``abort`` fault-injection seam —
no sockets, no real sleeps, no process kills.  The headline assertions
are the serve layer's contract: a sharded, stolen-from, crash-restarted
service run reports **bit-identically** (via :func:`report_signature`)
to a plain serial :class:`SweepRunner` sweep.
"""

from __future__ import annotations

import shutil

import pytest

from repro.core.config import CoSimConfig
from repro.core.manifest import config_to_dict
from repro.errors import ServeError, SweepError
from repro.serve import (
    FakeClock,
    JobParams,
    SweepService,
    report_signature,
    run_job_to_completion,
)
from repro.serve.service import JOBS_LOG
from repro.sweep import SweepRunner
from repro.sweep.fingerprint import config_key
from repro.sweep.journal import append_jsonl
from repro.sweep.resilience import TaskFailure
from repro.sweep.runner import SweepOutcome, SweepReport

#: Short lease so steal scenarios need only a small clock advance.
LEASE = 30.0


def _tiny_config(seed: int = 0) -> CoSimConfig:
    return CoSimConfig(
        world="tunnel", target_velocity=3.0, max_sim_time=1.0, seed=seed
    )


def _pairs(n: int = 3) -> list[tuple[str, CoSimConfig]]:
    return [(f"seed{s}", _tiny_config(s)) for s in range(n)]


def _params(**overrides) -> JobParams:
    merged = {"shards": 2, "lease_seconds": LEASE, **overrides}
    return JobParams(**merged)


@pytest.fixture(scope="module")
def serial_signature() -> str:
    """The bit-identity target: a plain serial sweep of the same tasks."""
    return report_signature(SweepRunner().run(_pairs()))


@pytest.fixture
def service(tmp_path):
    clock = FakeClock()
    with SweepService(tmp_path / "serve", clock=clock) as svc:
        svc.fake_clock = clock  # test-side convenience handle
        yield svc


def _fail_all(service: SweepService, job_id: str, worker: str = "shard-0"):
    """Hand-complete every task as failed (no missions run)."""
    scheduler = service.scheduler
    while True:
        assignment = scheduler.lease(worker)
        if assignment is None:
            break
        for (name, _config), key in zip(assignment.tasks, assignment.keys):
            scheduler.complete(
                worker, job_id, assignment.claim_id, name, key, "failed", 3,
                failure={"kind": "exception", "message": "boom", "attempt": 3},
            )


# ---------------------------------------------------------------------------
# The headline contract: sharded service == serial runner, bit for bit
# ---------------------------------------------------------------------------
class TestBitIdentity:
    def test_sharded_run_reproduces_serial_report(self, service, serial_signature):
        submitted = service.submit("sweep", _pairs(), _params())
        assert submitted["disposition"] == "submitted"
        status = run_job_to_completion(service, submitted["job"], workers=2)
        assert status["state"] == "done"
        report = service.report(submitted["job"])
        assert report.ok
        assert report_signature(report) == serial_signature
        # Both shards actually executed work.
        assert len(status["owners"]) == 2

    def test_killed_shard_work_is_stolen_and_report_unchanged(
        self, service, serial_signature
    ):
        clock = service.fake_clock
        submitted = service.submit("sweep", _pairs(), _params())
        job_id = submitted["job"]
        # shard-0 leases a slice and dies without reporting a thing.
        dead = service.worker("shard-0", abort=lambda: True)
        assert dead.step()
        # The survivor drains its own share, then idles: the dead
        # shard's slice is still leased.
        survivor = service.worker("shard-1")
        survivor.drain()
        assert service.status(job_id)["state"] == "running"
        # The lease lapses; the next drain steals the orphaned slice.
        clock.advance(LEASE + 1.0)
        assert service.scheduler.tick() == 1
        survivor.drain()
        status = service.status(job_id)
        assert status["state"] == "done"
        assert status["steals"] > 0
        assert set(status["owners"]) == {"shard-1"}
        assert report_signature(service.report(job_id)) == serial_signature
        telemetry = service.telemetry()
        assert telemetry["rose_serve_leases_expired_total"]["series"]
        assert telemetry["rose_serve_tasks_stolen_total"]["series"]

    def test_service_restart_resumes_and_report_unchanged(
        self, tmp_path, serial_signature
    ):
        root = tmp_path / "serve"
        clock = FakeClock()
        with SweepService(root, clock=clock) as first:
            submitted = first.submit("sweep", _pairs(), _params(slice_size=1))
            job_id = submitted["job"]
            worker = first.worker("shard-0")
            worker.drain(max_claims=1)  # one task done, then the crash
            assert first.status(job_id)["state"] == "running"
        # A new service over the same root replays the job store: the
        # completed record survives, the in-flight lease does not.
        with SweepService(root, clock=FakeClock()) as second:
            status = second.status(job_id)
            assert status["state"] == "running"
            assert status["tasks"]["completed"] == 1
            assert status["leases"] == []
            run_job_to_completion(second, job_id, workers=2)
            report = second.report(job_id)
            assert report_signature(report) == serial_signature
            # The pre-crash task resolves from the shared artifact cache.
            assert report.outcomes[0].owner == "shard-0"


# ---------------------------------------------------------------------------
# Control plane semantics
# ---------------------------------------------------------------------------
class TestControlPlane:
    def test_resubmission_deduplicates(self, service):
        first = service.submit("sweep", _pairs(), _params())
        again = service.submit("sweep", _pairs(), _params())
        assert again["disposition"] == "deduplicated"
        assert again["job"] == first["job"]
        run_job_to_completion(service, first["job"])
        done = service.submit("sweep", _pairs(), _params())
        assert done["disposition"] == "deduplicated"  # done jobs stay done
        assert done["state"] == "done"

    def test_cancel_then_resubmit_requeues(self, service):
        submitted = service.submit("sweep", _pairs(), _params())
        job_id = submitted["job"]
        cancelled = service.cancel(job_id)
        assert cancelled["cancelled"] and cancelled["state"] == "cancelled"
        with pytest.raises(ServeError) as excinfo:
            service.report(job_id)
        assert excinfo.value.status == 409
        requeued = service.submit("sweep", _pairs(), _params())
        assert requeued["disposition"] == "requeued"
        assert run_job_to_completion(service, job_id)["state"] == "done"

    def test_report_on_live_job_is_409(self, service):
        submitted = service.submit("sweep", _pairs(), _params())
        with pytest.raises(ServeError) as excinfo:
            service.report(submitted["job"])
        assert excinfo.value.status == 409

    def test_report_on_pruned_cache_is_502(self, service):
        submitted = service.submit("sweep", _pairs(), _params())
        run_job_to_completion(service, submitted["job"])
        shutil.rmtree(service.cache.root)
        with pytest.raises(ServeError) as excinfo:
            service.report(submitted["job"])
        assert excinfo.value.status == 502

    def test_job_telemetry_streams_partial_progress(self, service):
        submitted = service.submit("sweep", _pairs(), _params(slice_size=1))
        job_id = submitted["job"]
        service.worker("shard-0").drain(max_claims=1)
        partial = service.job_telemetry(job_id)
        assert partial["state"] == "running"
        assert partial["completed"] == 1 and partial["total"] == 3
        assert partial["mission_metrics"]  # one mission's metrics merged
        run_job_to_completion(service, job_id)
        assert service.job_telemetry(job_id)["completed"] == 3

    @pytest.mark.parametrize(
        "bad", [{"slice_size": 1.5}, {"shards": 2.5}, {"task_timeout": 0}]
    )
    def test_unrunnable_params_record_is_dropped_on_boot(self, tmp_path, bad):
        # Replay drops a journaled submit record no shard could run, so
        # it cannot kill the shards again on every boot.
        root = tmp_path / "serve"
        root.mkdir()
        config = _tiny_config(9)
        for record in (
            {
                "format": "rose-jobq/1", "event": "submit", "job": "poisoned",
                "name": "poisoned", "params": {**_params().to_dict(), **bad},
                "tasks": [{"name": "seed9", "key": config_key(config),
                           "config": config_to_dict(config)}],
            },
            {"event": "job_state", "job": "poisoned", "state": "running"},
        ):
            append_jsonl(root / JOBS_LOG, record)
        with SweepService(root, clock=FakeClock()) as service:
            assert service.statuses() == []
            submitted = service.submit("sweep", _pairs(2), _params())
            status = run_job_to_completion(service, submitted["job"])
            assert status["state"] == "done"

    def test_wait_returns_terminal_status_under_fake_clock(self, service):
        submitted = service.submit("sweep", _pairs(), _params())
        job_id = submitted["job"]
        with pytest.raises(ServeError) as excinfo:
            service.wait(job_id, timeout=2.0)  # fake clock: no real delay
        assert excinfo.value.status == 409
        run_job_to_completion(service, job_id)
        assert service.wait(job_id)["state"] == "done"

    def test_failed_job_report_carries_failures_and_owners(self, service):
        submitted = service.submit("sweep", _pairs(), _params())
        job_id = submitted["job"]
        _fail_all(service, job_id, worker="shard-0")
        status = service.status(job_id)
        assert status["state"] == "failed"
        report = service.report(job_id)
        assert not report.ok
        assert all(o.owner == "shard-0" for o in report.outcomes)
        assert all(
            isinstance(o.failure, TaskFailure) for o in report.failures()
        )
        with pytest.raises(SweepError, match=r"\[owner shard-0\]"):
            report.results()


# ---------------------------------------------------------------------------
# Owner attribution in SweepReport.results() (regression)
# ---------------------------------------------------------------------------
class TestOwnerAttribution:
    @staticmethod
    def _report(owner: str | None) -> SweepReport:
        outcome = SweepOutcome(
            name="seed0",
            config=_tiny_config(),
            result=None,
            wall_seconds=0.0,
            from_cache=False,
            state="failed",
            attempts=3,
            failure=TaskFailure(kind="exception", message="boom", attempt=3),
            owner=owner,
        )
        return SweepReport(
            outcomes=[outcome], wall_seconds=0.0, workers=1, fingerprint="fp"
        )

    def test_failure_summary_names_the_owning_shard(self):
        with pytest.raises(SweepError, match=r"seed0: failed \[owner shard-3\]"):
            self._report("shard-3").results()

    def test_anonymous_runs_omit_owner_clause(self):
        with pytest.raises(SweepError) as excinfo:
            self._report(None).results()
        assert "[owner" not in str(excinfo.value)

    def test_runner_stamps_owner_on_outcomes(self, tmp_path):
        report = SweepRunner(owner="shard-7").run(_pairs(1))
        assert [o.owner for o in report.outcomes] == ["shard-7"]
