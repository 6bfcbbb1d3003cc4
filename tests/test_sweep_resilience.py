"""Tests for resilient sweep execution.

Covers the supervision contract end to end: deterministic retry/backoff
(`repro.sweep.resilience`), the crash-safe journal and `--resume`
(`repro.sweep.journal`), the env-gated chaos harness
(`repro.sweep.chaos`), and the supervised runner paths — worker
exceptions, `BrokenProcessPool` recovery, per-task timeout expiry,
poison-task quarantine, and kill-mid-sweep resume bit-identity.
"""

from __future__ import annotations

import json
import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import CoSimConfig
from repro.core.cosim import run_mission
from repro.errors import ConfigError, SweepError
from repro.sweep import (
    ChaosPlan,
    ResultCache,
    RetryPolicy,
    SweepJournal,
    SweepRunner,
    SweepTask,
    TaskFailure,
    config_key,
    mission_signature,
    sweep_id,
)
from repro.sweep.chaos import CHAOS_ENV, load_chaos_plan
from repro.sweep.journal import ReplayEntry
from repro.sweep.resilience import SUCCESS_STATES
from repro.sweep.runner import _pool_initializer


def _tiny_config(seed: int = 0) -> CoSimConfig:
    """A mission short enough to run many times in a test."""
    return CoSimConfig(
        world="tunnel", target_velocity=3.0, max_sim_time=1.0, seed=seed
    )


def _tasks(n: int = 3) -> list[SweepTask]:
    return [SweepTask(f"seed{s}", _tiny_config(s)) for s in range(n)]


#: Fast retry budget for tests: generous attempts, near-zero backoff.
FAST_RETRY = RetryPolicy(max_attempts=5, base_delay=0.01, max_delay=0.05)


@pytest.fixture
def chaos_env():
    """Set a chaos plan for the test's duration, restoring the old value."""
    previous = os.environ.get(CHAOS_ENV)

    def activate(plan: ChaosPlan) -> None:
        os.environ[CHAOS_ENV] = plan.to_json()

    yield activate
    if previous is None:
        os.environ.pop(CHAOS_ENV, None)
    else:
        os.environ[CHAOS_ENV] = previous


@pytest.fixture(scope="module")
def serial_baseline():
    """Fault-free serial signatures for the standard three-task sweep."""
    return [
        mission_signature(run_mission(task.config)) for task in _tasks()
    ]


# ---------------------------------------------------------------------------
# RetryPolicy / TaskFailure
# ---------------------------------------------------------------------------
class TestRetryPolicy:
    def test_backoff_is_deterministic(self):
        policy = RetryPolicy()
        a = [policy.backoff_delay("k" * 64, n) for n in (1, 2, 3)]
        b = [policy.backoff_delay("k" * 64, n) for n in (1, 2, 3)]
        assert a == b

    def test_backoff_decorrelates_by_key(self):
        policy = RetryPolicy()
        assert policy.backoff_delay("a" * 64, 1) != policy.backoff_delay("b" * 64, 1)

    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(
            base_delay=0.1, max_delay=0.4, multiplier=2.0, jitter=0.0
        )
        delays = [policy.backoff_delay("k", n) for n in (1, 2, 3, 4, 5)]
        assert delays == [0.1, 0.2, 0.4, 0.4, 0.4]

    def test_jitter_bounds(self):
        policy = RetryPolicy(base_delay=1.0, max_delay=1.0, jitter=0.25)
        for n in range(1, 20):
            delay = policy.backoff_delay(f"key{n}", 1)
            assert 0.75 <= delay <= 1.25

    def test_budget(self):
        policy = RetryPolicy(max_attempts=3)
        assert policy.allows_retry(1) and policy.allows_retry(2)
        assert not policy.allows_retry(3)

    def test_terminal_state_quarantines_with_retries(self):
        assert RetryPolicy(max_attempts=3).terminal_state("exception") == "quarantined"

    def test_terminal_state_keeps_kind_without_retries(self):
        single = RetryPolicy(max_attempts=1)
        assert single.terminal_state("exception") == "failed"
        assert single.terminal_state("timeout") == "timed_out"
        assert single.terminal_state("pool_crash") == "crashed"

    def test_validation(self):
        with pytest.raises(ConfigError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigError):
            RetryPolicy(jitter=1.0)
        with pytest.raises(ConfigError):
            RetryPolicy(multiplier=0.5)


class TestTaskFailure:
    def test_round_trip(self):
        failure = TaskFailure(kind="timeout", message="too slow", attempt=2)
        assert TaskFailure.from_dict(failure.to_dict()) == failure

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            TaskFailure(kind="gremlins", message="?", attempt=1)


# ---------------------------------------------------------------------------
# Chaos plan
# ---------------------------------------------------------------------------
class TestChaosPlan:
    def test_decisions_are_deterministic(self):
        plan = ChaosPlan(fail_rate=0.5, seed=7)
        verdicts = [plan.decide(f"key{i}", 1) for i in range(50)]
        assert verdicts == [plan.decide(f"key{i}", 1) for i in range(50)]
        assert "fail" in verdicts and None in verdicts  # both bands hit

    def test_forced_overrides_rates(self):
        plan = ChaosPlan(forced=(("abc", "crash"),))
        assert plan.decide("abcdef", 1) == "crash"
        assert plan.decide("xyz", 1) is None

    def test_max_faulty_attempts_bounds_faults(self):
        plan = ChaosPlan(forced=(("", "fail"),), max_faulty_attempts=2)
        assert plan.decide("anything", 1) == "fail"
        assert plan.decide("anything", 2) == "fail"
        assert plan.decide("anything", 3) is None

    def test_json_round_trip(self):
        plan = ChaosPlan(fail_rate=0.1, crash_rate=0.2, seed=3, forced=(("ab", "hang"),))
        assert ChaosPlan.from_json(plan.to_json()) == plan

    def test_rates_validated(self):
        with pytest.raises(ConfigError):
            ChaosPlan(fail_rate=0.6, crash_rate=0.6)
        with pytest.raises(ConfigError):
            ChaosPlan(forced=(("ab", "explode"),))

    def test_load_accepts_inline_json_or_path(self, tmp_path):
        plan = ChaosPlan(fail_rate=0.1, seed=3)
        assert load_chaos_plan(plan.to_json()) == plan
        path = tmp_path / "plan.json"
        path.write_text(plan.to_json())
        assert load_chaos_plan(str(path)) == plan
        with pytest.raises(ConfigError, match="cannot read chaos plan"):
            load_chaos_plan(str(tmp_path / "missing.json"))


# ---------------------------------------------------------------------------
# Journal
# ---------------------------------------------------------------------------
class TestJournal:
    def test_sweep_id_sensitive_to_order_and_content(self):
        tasks = [("a", "k1"), ("b", "k2")]
        base = sweep_id("f" * 64, tasks)
        assert base == sweep_id("f" * 64, tasks)
        assert base != sweep_id("e" * 64, tasks)
        assert base != sweep_id("f" * 64, list(reversed(tasks)))

    def test_replay_round_trip(self, tmp_path):
        journal = SweepJournal(tmp_path / "j.jsonl")
        journal.begin("f" * 64, [("a", "k1"), ("b", "k2")], {"max_attempts": 3})
        journal.record_task("a", "k1", "ok", 1)
        journal.record_task(
            "b", "k2", "quarantined", 3,
            failure={"kind": "exception", "message": "boom", "attempt": 3},
        )
        journal.end({"ok": 1, "failed": 1})
        replayed = journal.replay()
        assert replayed == {
            "k1": ReplayEntry(name="a", key="k1", state="ok", attempts=1),
            "k2": ReplayEntry(name="b", key="k2", state="quarantined", attempts=3),
        }

    def test_replay_tolerates_torn_trailing_line(self, tmp_path):
        journal = SweepJournal(tmp_path / "j.jsonl")
        journal.begin("f" * 64, [("a", "k1")])
        journal.record_task("a", "k1", "ok", 1)
        # Simulate a crash mid-append: a truncated final record.
        with open(journal.path, "a", encoding="utf-8") as handle:
            handle.write('{"event": "task", "name": "b", "ke')
        assert journal.replay() == {
            "k1": ReplayEntry(name="a", key="k1", state="ok", attempts=1)
        }

    def test_garbage_mid_file_raises(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text('not json\n{"event": "begin"}\n{"event": "end"}\n')
        with pytest.raises(ValueError):
            SweepJournal(path).replay()

    def test_missing_file_replays_empty(self, tmp_path):
        assert SweepJournal(tmp_path / "absent.jsonl").replay() == {}

    def test_new_begin_starts_fresh_segment(self, tmp_path):
        journal = SweepJournal(tmp_path / "j.jsonl")
        journal.begin("f" * 64, [("a", "k1")])
        journal.record_task("a", "k1", "ok", 1)
        journal.begin("f" * 64, [("a", "k1")])  # non-resume re-run
        assert journal.replay() == {}

    @settings(
        deadline=None, max_examples=40,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        events=st.lists(
            st.tuples(
                st.sampled_from(["t0", "t1", "t2", "t3"]),
                st.sampled_from(
                    ["ok", "from_cache", "failed", "timed_out", "crashed", "quarantined"]
                ),
                st.integers(min_value=1, max_value=5),
            ),
            max_size=25,
        )
    )
    def test_replay_is_last_event_wins(self, tmp_path, events):
        """Property: replay == fold of the event list, any ordering."""
        journal = SweepJournal(
            tmp_path / f"prop-{abs(hash(tuple(events))) % 10**9}.jsonl"
        )
        journal.begin("f" * 64, [(name, f"key-{name}") for name, _, _ in events])
        expected: dict[str, ReplayEntry] = {}
        for name, state, attempts in events:
            key = f"key-{name}"
            journal.record_task(name, key, state, attempts)
            expected[key] = ReplayEntry(
                name=name, key=key, state=state, attempts=attempts
            )
        assert journal.replay() == expected


# ---------------------------------------------------------------------------
# Supervised execution: exception / crash / hang / quarantine
# ---------------------------------------------------------------------------
class TestSupervisedExecution:
    def test_serial_retry_recovers(self, chaos_env, serial_baseline):
        tasks = _tasks()
        key = config_key(tasks[0].config)
        chaos_env(ChaosPlan(forced=((key[:16], "fail"),), max_faulty_attempts=2))
        report = SweepRunner(workers=1, retry=FAST_RETRY).run(tasks)
        assert report.ok
        assert report.retries == 2
        assert report.outcomes[0].attempts == 3
        sigs = [mission_signature(o.result) for o in report.outcomes]
        assert sigs == serial_baseline

    def test_worker_exception_recovers_in_pool(self, chaos_env, serial_baseline):
        tasks = _tasks()
        key = config_key(tasks[0].config)
        chaos_env(ChaosPlan(forced=((key[:16], "fail"),), max_faulty_attempts=1))
        report = SweepRunner(workers=2, retry=FAST_RETRY).run(tasks)
        assert report.ok
        assert report.retries >= 1
        sigs = [mission_signature(o.result) for o in report.outcomes]
        assert sigs == serial_baseline

    def test_broken_pool_recovers(self, chaos_env, serial_baseline):
        tasks = _tasks()
        key = config_key(tasks[0].config)
        chaos_env(ChaosPlan(forced=((key[:16], "crash"),), max_faulty_attempts=1))
        report = SweepRunner(workers=2, retry=FAST_RETRY).run(tasks)
        assert report.ok
        assert report.pool_crashes >= 1
        sigs = [mission_signature(o.result) for o in report.outcomes]
        assert sigs == serial_baseline

    def test_timeout_expiry_recovers(self, chaos_env, serial_baseline):
        tasks = _tasks()
        key = config_key(tasks[0].config)
        chaos_env(
            ChaosPlan(
                forced=((key[:16], "hang"),),
                max_faulty_attempts=1,
                hang_seconds=60.0,
            )
        )
        report = SweepRunner(
            workers=2, retry=FAST_RETRY, task_timeout=5.0
        ).run(tasks)
        assert report.ok
        assert report.timeouts >= 1
        assert any(
            failure.kind == "timeout"
            for outcome in report.outcomes
            for failure in ([outcome.failure] if outcome.failure else [])
        ) or report.outcomes[0].attempts > 1
        sigs = [mission_signature(o.result) for o in report.outcomes]
        assert sigs == serial_baseline

    def test_poison_task_quarantined(self, chaos_env):
        tasks = _tasks()
        key = config_key(tasks[0].config)
        chaos_env(ChaosPlan(forced=((key[:16], "fail"),), max_faulty_attempts=99))
        report = SweepRunner(
            workers=2,
            retry=RetryPolicy(max_attempts=3, base_delay=0.01, max_delay=0.02),
        ).run(tasks)
        poisoned = report.outcomes[0]
        assert poisoned.state == "quarantined"
        assert poisoned.attempts == 3
        assert poisoned.result is None
        assert poisoned.failure is not None and poisoned.failure.kind == "exception"
        assert report.quarantined == 1
        # The rest of the sweep still completed.
        assert all(o.ok for o in report.outcomes[1:])
        with pytest.raises(SweepError, match="quarantined"):
            report.results()

    def test_no_retry_policy_keeps_failure_kind(self, chaos_env):
        tasks = _tasks(2)
        key = config_key(tasks[0].config)
        chaos_env(ChaosPlan(forced=((key[:16], "fail"),), max_faulty_attempts=99))
        report = SweepRunner(
            workers=1, retry=RetryPolicy(max_attempts=1)
        ).run(tasks)
        assert report.outcomes[0].state == "failed"
        assert report.retries == 0

    def test_sweep_metrics_in_telemetry(self, chaos_env):
        tasks = _tasks(2)
        key = config_key(tasks[0].config)
        chaos_env(ChaosPlan(forced=((key[:16], "fail"),), max_faulty_attempts=1))
        report = SweepRunner(workers=1, retry=FAST_RETRY).run(tasks)
        merged = report.telemetry()
        series = merged.get("rose_sweep_retries_total", {}).get("series", [])
        assert sum(row["value"] for row in series) == report.retries == 1

    def test_clean_run_telemetry_has_no_resilience_noise(self):
        """Fault-free sweeps keep the pre-resilience telemetry shape:
        every rose_sweep_* series stays empty, so merged snapshots are
        identical to what a plain serial run produces."""
        report = SweepRunner(workers=1).run(_tasks(2))
        merged = report.telemetry()
        for name in (
            "rose_sweep_retries_total",
            "rose_sweep_timeouts_total",
            "rose_sweep_crashes_total",
            "rose_sweep_quarantined_total",
            "rose_sweep_journal_replays_total",
            "rose_cache_corrupt_total",
        ):
            assert merged.get(name, {}).get("series", []) == []


# ---------------------------------------------------------------------------
# Pool initializer (fork-state hygiene)
# ---------------------------------------------------------------------------
class TestPoolInitializer:
    def test_clears_transient_chaos_state(self):
        from repro.sweep import chaos

        chaos._INJECTED.append(("fail", "k", 1))
        try:
            _pool_initializer(generation=1)
            assert chaos.injected_faults() == []
        finally:
            chaos.reset_process_state()

    def test_reseeds_global_rngs(self):
        import random

        _pool_initializer(generation=1)
        first = random.random()
        _pool_initializer(generation=1)
        assert random.random() == first
        _pool_initializer(generation=2)
        assert random.random() != first
        _pool_initializer(generation=0)  # leave a known state behind


# ---------------------------------------------------------------------------
# Journal-backed resume
# ---------------------------------------------------------------------------
class TestResume:
    def _journal_for(self, cache: ResultCache, tasks: list[SweepTask]) -> SweepJournal:
        pairs = [(task.name, config_key(task.config)) for task in tasks]
        return SweepJournal.for_sweep(cache.root, cache.fingerprint, pairs)

    def test_kill_mid_sweep_then_resume_is_bit_identical(
        self, tmp_path, serial_baseline
    ):
        tasks = _tasks()
        # Uninterrupted reference run (separate cache root).
        reference = SweepRunner(
            workers=1, cache=ResultCache(tmp_path / "ref")
        ).run(tasks)
        ref_sigs = [mission_signature(o.result) for o in reference.outcomes]
        assert ref_sigs == serial_baseline

        # "Killed" run: simulate SIGKILL after task 0 completed by
        # truncating cache + journal to their state at that moment —
        # including a torn half-record from the dying append.
        cache = ResultCache(tmp_path / "run")
        journal = self._journal_for(cache, tasks)
        interrupted = SweepRunner(workers=1, cache=cache, journal=journal).run(tasks)
        assert interrupted.ok
        keep_key = config_key(tasks[0].config)
        for task in tasks[1:]:
            cache._path(config_key(task.config)).unlink()
        lines = journal.path.read_text().splitlines(keepends=True)
        kept = [
            line
            for line in lines
            if json.loads(line).get("event") == "begin"
            or json.loads(line).get("key") == keep_key
        ]
        journal.path.write_text("".join(kept) + '{"event": "task", "na')

        # Resume: only the two missing tasks recompute.
        cache2 = ResultCache(tmp_path / "run")
        journal2 = self._journal_for(cache2, tasks)
        resumed = SweepRunner(
            workers=1, cache=cache2, journal=journal2, resume=True
        ).run(tasks)
        assert resumed.ok
        assert [o.from_cache for o in resumed.outcomes] == [True, False, False]
        assert resumed.journal_replays == 1
        assert resumed.cache_hits == 1 and resumed.cache_misses == 2
        # Bit-identical to the uninterrupted run, task for task.
        sigs = [mission_signature(o.result) for o in resumed.outcomes]
        assert sigs == ref_sigs

    def test_resume_full_journal_recomputes_nothing(self, tmp_path):
        tasks = _tasks(2)
        cache = ResultCache(tmp_path)
        journal = self._journal_for(cache, tasks)
        SweepRunner(workers=1, cache=cache, journal=journal).run(tasks)

        cache2 = ResultCache(tmp_path)
        journal2 = self._journal_for(cache2, tasks)
        resumed = SweepRunner(
            workers=1, cache=cache2, journal=journal2, resume=True
        ).run(tasks)
        assert resumed.ok
        assert all(o.from_cache for o in resumed.outcomes)
        assert resumed.journal_replays == 2
        assert resumed.cache_misses == 0

    def test_resume_requires_journal(self):
        with pytest.raises(ConfigError):
            SweepRunner(resume=True)

    def test_journal_records_failures(self, tmp_path, chaos_env):
        tasks = _tasks(2)
        cache = ResultCache(tmp_path)
        journal = self._journal_for(cache, tasks)
        key = config_key(tasks[0].config)
        chaos_env(ChaosPlan(forced=((key[:16], "fail"),), max_faulty_attempts=99))
        SweepRunner(
            workers=1,
            cache=cache,
            journal=journal,
            retry=RetryPolicy(max_attempts=2, base_delay=0.01, max_delay=0.02),
        ).run(tasks)
        replayed = journal.replay()
        assert replayed[key].state == "quarantined"
        assert replayed[key].attempts == 2
        ok_states = {
            entry.state for entry in replayed.values() if entry.key != key
        }
        assert ok_states <= SUCCESS_STATES
