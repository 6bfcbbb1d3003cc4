"""Tests for the sweep engine: determinism, caching, fingerprinting."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core.config import CoSimConfig
from repro.core.cosim import run_mission
from repro.sweep import (
    ResultCache,
    SweepRunner,
    SweepTask,
    code_fingerprint,
    config_key,
    mission_signature,
    sweep_missions,
)


def _tiny_config(seed: int = 0) -> CoSimConfig:
    """A mission short enough to run many times in a test."""
    return CoSimConfig(
        world="tunnel", target_velocity=3.0, max_sim_time=3.0, seed=seed
    )


@pytest.fixture(scope="module")
def tiny_configs():
    return [_tiny_config(seed) for seed in range(4)]


@pytest.fixture(scope="module")
def serial_signatures(tiny_configs):
    report = SweepRunner(workers=1).run(tiny_configs)
    return [mission_signature(result) for result in report.results()]


class TestConfigKey:
    def test_stable_across_equal_configs(self):
        assert config_key(_tiny_config(3)) == config_key(_tiny_config(3))

    def test_sensitive_to_any_field(self):
        base = _tiny_config(0)
        assert config_key(base) != config_key(replace(base, seed=1))
        assert config_key(base) != config_key(replace(base, target_velocity=4.0))

    def test_fingerprint_is_stable_hex(self):
        fingerprint = code_fingerprint()
        assert fingerprint == code_fingerprint()
        assert len(fingerprint) == 64
        int(fingerprint, 16)


class TestDeterminism:
    """The hard invariant: serial == parallel == cache-hit, bitwise."""

    def test_parallel_matches_serial(self, tiny_configs, serial_signatures):
        report = SweepRunner(workers=2).run(tiny_configs)
        parallel = [mission_signature(result) for result in report.results()]
        assert parallel == serial_signatures

    def test_warm_cache_matches_serial(
        self, tiny_configs, serial_signatures, tmp_path
    ):
        SweepRunner(workers=1, cache=ResultCache(tmp_path)).run(tiny_configs)
        warm = SweepRunner(workers=1, cache=ResultCache(tmp_path)).run(tiny_configs)
        assert all(outcome.from_cache for outcome in warm.outcomes)
        cached = [mission_signature(result) for result in warm.results()]
        assert cached == serial_signatures

    def test_signature_matches_direct_run_mission(
        self, tiny_configs, serial_signatures
    ):
        assert mission_signature(run_mission(tiny_configs[0])) == serial_signatures[0]

    def test_signature_ignores_stage_timings(self, tiny_configs):
        result = run_mission(tiny_configs[1])
        before = mission_signature(result)
        result.stage_timings = {"env_step": 123.0}
        assert mission_signature(result) == before

    def test_results_preserve_task_order(self, tiny_configs):
        report = SweepRunner(workers=2).run(
            [SweepTask(f"s{i}", config) for i, config in enumerate(tiny_configs)]
        )
        assert [outcome.name for outcome in report.outcomes] == [
            "s0",
            "s1",
            "s2",
            "s3",
        ]
        assert [outcome.config.seed for outcome in report.outcomes] == [0, 1, 2, 3]


class TestResultCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path)
        config = _tiny_config(0)
        assert cache.get(config_key(config)) is None
        result = run_mission(config)
        cache.put(config_key(config), result)
        again = cache.get(config_key(config))
        assert again is not None
        assert mission_signature(again) == mission_signature(result)
        assert cache.stats() == {"hits": 1, "misses": 1, "stores": 1, "corrupt": 0}

    def test_entries_scoped_by_fingerprint(self, tmp_path):
        config = _tiny_config(0)
        cache = ResultCache(tmp_path, fingerprint="a" * 64)
        cache.put(config_key(config), run_mission(config))
        other = ResultCache(tmp_path, fingerprint="b" * 64)
        assert other.get(config_key(config)) is None

    def test_corrupt_entry_quarantined(self, tmp_path):
        cache = ResultCache(tmp_path)
        config = _tiny_config(0)
        path = cache.put(config_key(config), run_mission(config))
        path.write_bytes(b"not a pickle")
        assert cache.get(config_key(config)) is None
        assert not path.exists()  # key vacated for the recompute
        quarantined = path.with_name(path.name + ".corrupt")
        assert quarantined.is_file()  # evidence preserved, not deleted
        assert quarantined.read_bytes() == b"not a pickle"
        assert cache.corrupt == 1
        assert cache.stats()["corrupt"] == 1
        report = SweepRunner(workers=1, cache=cache).run([config])
        assert not report.outcomes[0].from_cache
        metrics = report.sweep_metrics or {}
        series = metrics.get("rose_cache_corrupt_total", {}).get("series", [])
        assert sum(row["value"] for row in series) == 1

    def test_prune_removes_other_fingerprints(self, tmp_path):
        config = _tiny_config(0)
        result = run_mission(config)
        stale = ResultCache(tmp_path, fingerprint="c" * 64)
        stale.put(config_key(config), result)
        live = ResultCache(tmp_path)
        live.put(config_key(config), result)
        assert live.prune() == 1
        assert live.get(config_key(config)) is not None

    def test_stage_timings_recorded(self):
        result = run_mission(_tiny_config(0))
        assert result.stage_timings is not None
        assert result.stage_timings["env_step"] > 0.0
        assert result.stage_timings["soc_step"] > 0.0


class TestSweepMissions:
    def test_env_default_is_serial_uncached(self, tiny_configs, monkeypatch):
        monkeypatch.delenv("REPRO_SWEEP_WORKERS", raising=False)
        monkeypatch.delenv("REPRO_SWEEP_CACHE_DIR", raising=False)
        results = sweep_missions(tiny_configs[:2])
        assert len(results) == 2

    def test_env_cache_dir_enables_cache(self, tiny_configs, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_SWEEP_CACHE_DIR", str(tmp_path))
        sweep_missions(tiny_configs[:2])
        # Second call should be served from the cache directory.
        results = sweep_missions(tiny_configs[:2])
        assert len(list(tmp_path.rglob("*.pkl"))) == 2
        assert len(results) == 2


class TestCacheKeyCoversFullConfig:
    """Regression: the cache key must include the fault plan and the
    invariant-check flag — a stale hit across either would silently
    return the wrong mission."""

    def test_fault_plan_changes_key(self):
        from repro.core.faults import FaultPlan

        base = _tiny_config(0)
        faulty = replace(base, faults=FaultPlan.sensor_response_drop(0.2, seed=3))
        assert config_key(base) != config_key(faulty)
        # Different plans differ from each other too, not just from None.
        other = replace(base, faults=FaultPlan.sensor_response_drop(0.2, seed=4))
        assert config_key(faulty) != config_key(other)

    def test_invariant_flag_changes_key(self):
        base = _tiny_config(0)
        assert config_key(base) != config_key(replace(base, check_invariants=True))
        assert config_key(replace(base, check_invariants=True)) != config_key(
            replace(base, check_invariants=False)
        )

    def test_no_stale_hit_across_fault_plans(self, tmp_path):
        from repro.core.faults import FaultPlan

        cache = ResultCache(tmp_path)
        clean = _tiny_config(0)
        cache.put(config_key(clean), run_mission(clean))
        faulty = replace(clean, faults=FaultPlan.sensor_response_drop(0.5, seed=1))
        assert cache.get(config_key(faulty)) is None  # must NOT serve the clean result

    def test_no_stale_hit_across_invariant_flag(self, tmp_path):
        cache = ResultCache(tmp_path)
        on = _tiny_config(0)
        cache.put(config_key(on), run_mission(on))
        assert cache.get(config_key(replace(on, check_invariants=True))) is None


class TestSweepResume:
    """Resuming a sweep over a damaged cache recomputes only the damage."""

    def test_one_corrupt_one_valid(self, tmp_path):
        configs = [_tiny_config(0), _tiny_config(1)]
        first = SweepRunner(workers=1, cache=ResultCache(tmp_path)).run(configs)
        baseline = [mission_signature(r) for r in first.results()]

        # Damage exactly one entry on disk.
        cache = ResultCache(tmp_path)
        corrupt_path = cache._path(config_key(configs[0]))
        assert corrupt_path.is_file()
        corrupt_path.write_bytes(b"\x00 damaged pickle \x00")

        resumed = SweepRunner(workers=1, cache=cache).run(configs)
        assert [o.from_cache for o in resumed.outcomes] == [False, True]
        assert cache.stats() == {"hits": 1, "misses": 1, "stores": 1, "corrupt": 1}
        # The re-executed mission is bit-identical to the original run.
        assert [mission_signature(r) for r in resumed.results()] == baseline
        # And the repaired entry now serves warm.
        warm = SweepRunner(workers=1, cache=ResultCache(tmp_path)).run(configs)
        assert all(o.from_cache for o in warm.outcomes)
        assert [mission_signature(r) for r in warm.results()] == baseline
