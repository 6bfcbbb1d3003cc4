"""Tests for the repro.analysis.lint static-analysis framework.

Fixture trees replicate the real layout — a ``repro/...`` package under a
scanned source root — so path-scoped rules behave exactly as they do on
the shipped tree.
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

from repro.analysis.lint import (
    Baseline,
    LintEngine,
    all_rules,
    baseline_path_for,
    get_rule,
)
from repro.analysis.lint.bans import rows_for
from repro.cli import main
from repro.errors import ConfigError


def make_tree(root: Path, files: dict[str, str]) -> Path:
    """Write ``files`` (repo-relative paths -> source) under ``root``."""
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    return root


def run_lint(root: Path, rules: list[str] | None = None, baseline: Baseline | None = None):
    selected = [get_rule(r) for r in rules] if rules else None
    return LintEngine(root, rules=selected, baseline=baseline).run()


def active_rules(report) -> list[str]:
    return [d.rule for d in report.active]


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------
class TestRegistry:
    def test_all_families_registered(self):
        families = {r.family for r in all_rules().values()}
        assert {"DET", "NUM", "PROTO", "CFG", "OBS", "RES", "SRV"} <= families

    def test_get_rule_unknown_raises(self):
        with pytest.raises(KeyError):
            get_rule("NOPE999")

    def test_rule_scoping(self):
        det002 = get_rule("DET002")
        assert det002.applies_to("repro/core/synchronizer.py")
        assert not det002.applies_to("repro/app/controller.py")
        assert not det002.applies_to("repro/core/timing.py")  # excluded


# ---------------------------------------------------------------------------
# DET: determinism rules
# ---------------------------------------------------------------------------
class TestDet001GlobalRng:
    def test_flags_global_stream_calls(self, tmp_path):
        make_tree(tmp_path, {
            "repro/env/noise.py": """
                import random
                import numpy as np

                def jitter():
                    return random.random() + np.random.rand()
            """,
        })
        report = run_lint(tmp_path, rules=["DET001"])
        assert active_rules(report) == ["DET001", "DET001"]

    def test_flags_seeding_outside_blessed_site(self, tmp_path):
        make_tree(tmp_path, {
            "repro/env/setup.py": """
                import random

                def prep():
                    random.seed(0)
            """,
        })
        report = run_lint(tmp_path, rules=["DET001"])
        assert active_rules(report) == ["DET001"]
        assert "blessed" in report.active[0].message

    def test_blessed_site_may_seed(self, tmp_path):
        make_tree(tmp_path, {
            "repro/sweep/runner.py": """
                import random
                import numpy as np

                def _seed_worker(seed):
                    random.seed(seed)
                    np.random.seed(seed)
            """,
        })
        assert run_lint(tmp_path, rules=["DET001"]).active == []

    def test_instance_rngs_are_clean(self, tmp_path):
        make_tree(tmp_path, {
            "repro/env/ok.py": """
                import random
                import numpy as np

                def draw(seed):
                    rng = np.random.default_rng(seed)
                    local = random.Random(seed)
                    return rng.normal() + local.random()
            """,
        })
        assert run_lint(tmp_path, rules=["DET001"]).active == []

    def test_os_entropy_generators_are_flagged(self, tmp_path):
        # SystemRandom cannot be seeded; the seeded constructors called
        # with no argument seed themselves from OS entropy.
        make_tree(tmp_path, {
            "repro/env/entropy.py": """
                import random
                import numpy as np

                def generators(seed):
                    return (
                        random.SystemRandom(seed),
                        random.Random(),
                        np.random.default_rng(),
                        np.random.SeedSequence(),
                        np.random.default_rng(seed=seed),
                    )
            """,
        })
        report = run_lint(tmp_path, rules=["DET001"])
        assert [(d.line, d.rule) for d in report.active] == [
            (7, "DET001"), (8, "DET001"), (9, "DET001"), (10, "DET001"),
        ]
        assert "random.SystemRandom()" in report.active[0].message


class TestDet002WallClock:
    def test_flags_wall_clock_in_scope(self, tmp_path):
        make_tree(tmp_path, {
            "repro/core/link.py": """
                import time

                def stamp():
                    return time.time()
            """,
        })
        report = run_lint(tmp_path, rules=["DET002"])
        assert active_rules(report) == ["DET002"]

    def test_resolves_from_import_alias(self, tmp_path):
        make_tree(tmp_path, {
            "repro/soc/clock.py": """
                from time import perf_counter as tick

                def now():
                    return tick()
            """,
        })
        assert active_rules(run_lint(tmp_path, rules=["DET002"])) == ["DET002"]

    def test_out_of_scope_path_is_clean(self, tmp_path):
        make_tree(tmp_path, {
            "repro/app/bench.py": """
                import time

                def stamp():
                    return time.time()
            """,
        })
        assert run_lint(tmp_path, rules=["DET002"]).active == []

    def test_timing_module_is_the_blessed_exception(self, tmp_path):
        make_tree(tmp_path, {
            "repro/core/timing.py": """
                from time import perf_counter

                def wall_clock():
                    return perf_counter()
            """,
        })
        assert run_lint(tmp_path, rules=["DET002"]).active == []


class TestDet003SetIteration:
    def test_flags_set_literal_and_set_call(self, tmp_path):
        make_tree(tmp_path, {
            "repro/core/order.py": """
                def names(raw):
                    out = []
                    for item in {"b", "a"}:
                        out.append(item)
                    return [x for x in set(raw)] + out
            """,
        })
        assert active_rules(run_lint(tmp_path, rules=["DET003"])) == ["DET003", "DET003"]

    def test_sorted_set_is_clean(self, tmp_path):
        make_tree(tmp_path, {
            "repro/core/order.py": """
                def names(raw):
                    return [x for x in sorted(set(raw))]
            """,
        })
        assert run_lint(tmp_path, rules=["DET003"]).active == []


class TestDet004DigestOrder:
    def test_flags_unsorted_dumps_in_digest_file(self, tmp_path):
        make_tree(tmp_path, {
            "repro/sweep/signature.py": """
                import json

                def payload(data):
                    return json.dumps(data)
            """,
        })
        assert active_rules(run_lint(tmp_path, rules=["DET004"])) == ["DET004"]

    def test_flags_dict_view_iteration_in_hashing_function(self, tmp_path):
        make_tree(tmp_path, {
            "repro/sweep/fingerprint.py": """
                import hashlib

                def digest(data):
                    h = hashlib.sha256()
                    for key, value in data.items():
                        h.update(f"{key}={value}".encode())
                    return h.hexdigest()
            """,
        })
        assert active_rules(run_lint(tmp_path, rules=["DET004"])) == ["DET004"]

    def test_sorted_serialization_is_clean(self, tmp_path):
        make_tree(tmp_path, {
            "repro/sweep/signature.py": """
                import hashlib
                import json

                def digest(data):
                    text = json.dumps(data, sort_keys=True)
                    return hashlib.sha256(text.encode()).hexdigest()
            """,
        })
        assert run_lint(tmp_path, rules=["DET004"]).active == []

    def test_non_digest_files_unscanned(self, tmp_path):
        make_tree(tmp_path, {
            "repro/core/trace.py": """
                import json

                def render(events):
                    return json.dumps(events)
            """,
        })
        assert run_lint(tmp_path, rules=["DET004"]).active == []


# ---------------------------------------------------------------------------
# NUM: numeric hygiene rules
# ---------------------------------------------------------------------------
class TestNum001FloatSum:
    def test_flags_float_sum_in_kernel(self, tmp_path):
        make_tree(tmp_path, {
            "repro/dnn/stats.py": """
                def total_latency(latencies_ms):
                    return sum(latencies_ms)
            """,
        })
        report = run_lint(tmp_path, rules=["NUM001"])
        assert active_rules(report) == ["NUM001"]

    def test_integer_sum_is_clean(self, tmp_path):
        make_tree(tmp_path, {
            "repro/dnn/stats.py": """
                def total_macs(mac_counts):
                    return sum(mac_counts)
            """,
        })
        assert run_lint(tmp_path, rules=["NUM001"]).active == []

    def test_out_of_scope_path_is_clean(self, tmp_path):
        make_tree(tmp_path, {
            "repro/env/stats.py": """
                def total_latency(latencies_ms):
                    return sum(latencies_ms)
            """,
        })
        assert run_lint(tmp_path, rules=["NUM001"]).active == []


class TestNum002DtypelessArray:
    def test_flags_dtypeless_array(self, tmp_path):
        make_tree(tmp_path, {
            "repro/soc/calib2.py": """
                import numpy as np

                CENTERS = np.array([2.0, 0.0, -2.0])
            """,
        })
        assert active_rules(run_lint(tmp_path, rules=["NUM002"])) == ["NUM002"]

    def test_explicit_dtype_is_clean(self, tmp_path):
        make_tree(tmp_path, {
            "repro/soc/calib2.py": """
                import numpy as np

                CENTERS = np.array([2.0, 0.0, -2.0], dtype=np.float64)
                POSITIONAL = np.array([1, 2], np.int32)
            """,
        })
        assert run_lint(tmp_path, rules=["NUM002"]).active == []


# ---------------------------------------------------------------------------
# PROTO: protocol totality and loud failure
# ---------------------------------------------------------------------------
_ENUM_SOURCE = """
    from enum import IntEnum

    class PacketType(IntEnum):
        SYNC_GRANT = 1
        SYNC_DONE = 2
        CAMERA_REQ = 3
        CAMERA_RESP = 4
"""


class TestProto001DispatchTotality:
    def test_flags_missing_member(self, tmp_path):
        make_tree(tmp_path, {
            "repro/core/packets.py": _ENUM_SOURCE,
            "repro/core/dispatch.py": """
                from repro.core.packets import PacketType

                HANDLERS = {
                    PacketType.SYNC_GRANT: "grant",
                    PacketType.SYNC_DONE: "done",
                    PacketType.CAMERA_REQ: "req",
                }
            """,
        })
        report = run_lint(tmp_path, rules=["PROTO001"])
        assert active_rules(report) == ["PROTO001"]
        assert "CAMERA_RESP" in report.active[0].message

    def test_total_map_is_clean(self, tmp_path):
        make_tree(tmp_path, {
            "repro/core/packets.py": _ENUM_SOURCE,
            "repro/core/dispatch.py": """
                from repro.core.packets import PacketType

                HANDLERS = {
                    PacketType.SYNC_GRANT: "grant",
                    PacketType.SYNC_DONE: "done",
                    PacketType.CAMERA_REQ: "req",
                    PacketType.CAMERA_RESP: "resp",
                }
            """,
        })
        assert run_lint(tmp_path, rules=["PROTO001"]).active == []

    def test_small_maps_below_threshold_ignored(self, tmp_path):
        make_tree(tmp_path, {
            "repro/core/packets.py": _ENUM_SOURCE,
            "repro/core/dispatch.py": """
                from repro.core.packets import PacketType

                SPECIAL = {
                    PacketType.CAMERA_REQ: "req",
                    PacketType.CAMERA_RESP: "resp",
                }
            """,
        })
        assert run_lint(tmp_path, rules=["PROTO001"]).active == []


class TestProto002SwallowedExcept:
    def test_flags_bare_except(self, tmp_path):
        make_tree(tmp_path, {
            "repro/core/link.py": """
                def poll(sock):
                    try:
                        return sock.recv()
                    except:
                        return None
            """,
        })
        assert active_rules(run_lint(tmp_path, rules=["PROTO002"])) == ["PROTO002"]

    def test_flags_swallowed_broad_except(self, tmp_path):
        make_tree(tmp_path, {
            "repro/core/link.py": """
                def poll(sock):
                    try:
                        return sock.recv()
                    except Exception:
                        pass
            """,
        })
        assert active_rules(run_lint(tmp_path, rules=["PROTO002"])) == ["PROTO002"]

    def test_broad_except_that_acts_is_clean(self, tmp_path):
        make_tree(tmp_path, {
            "repro/core/link.py": """
                def poll(sock, stats):
                    try:
                        return sock.recv()
                    except Exception as exc:
                        stats.errors += 1
                        raise RuntimeError("link failed") from exc
            """,
        })
        assert run_lint(tmp_path, rules=["PROTO002"]).active == []

    def test_specific_except_pass_is_clean(self, tmp_path):
        make_tree(tmp_path, {
            "repro/core/link.py": """
                def poll(sock):
                    try:
                        return sock.recv()
                    except BlockingIOError:
                        pass
            """,
        })
        assert run_lint(tmp_path, rules=["PROTO002"]).active == []


# ---------------------------------------------------------------------------
# CFG: cache-key coverage
# ---------------------------------------------------------------------------
_CONFIG_SOURCE = """
    from dataclasses import dataclass, field

    @dataclass
    class SyncConfig:
        cycles_per_sync: int = 1000
        frame_rate_hz: float = 60.0

    @dataclass
    class CoSimConfig:
        world: str = "tunnel"
        seed: int = 0
        sync: SyncConfig = field(default_factory=SyncConfig)
"""


class TestCfg001CacheKeyCoverage:
    def test_missing_field_without_asdict_flagged(self, tmp_path):
        make_tree(tmp_path, {
            "repro/core/config.py": _CONFIG_SOURCE,
            "repro/core/manifest.py": """
                def config_to_dict(config):
                    return {"world": config.world, "sync": {}}
            """,
        })
        report = run_lint(tmp_path, rules=["CFG001"])
        messages = " | ".join(d.message for d in report.active)
        assert "seed" in messages  # top-level field escaped

    def test_nested_override_missing_field_flagged(self, tmp_path):
        make_tree(tmp_path, {
            "repro/core/config.py": _CONFIG_SOURCE,
            "repro/core/manifest.py": """
                from dataclasses import asdict

                def config_to_dict(config):
                    data = asdict(config)
                    data["sync"] = {"cycles_per_sync": config.sync.cycles_per_sync}
                    return data
            """,
        })
        report = run_lint(tmp_path, rules=["CFG001"])
        assert active_rules(report) == ["CFG001"]
        assert "frame_rate_hz" in report.active[0].message

    def test_asdict_with_total_override_is_clean(self, tmp_path):
        make_tree(tmp_path, {
            "repro/core/config.py": _CONFIG_SOURCE,
            "repro/core/manifest.py": """
                from dataclasses import asdict

                def config_to_dict(config):
                    data = asdict(config)
                    data["sync"] = {
                        "cycles_per_sync": config.sync.cycles_per_sync,
                        "frame_rate_hz": config.sync.frame_rate_hz,
                    }
                    return data
            """,
        })
        assert run_lint(tmp_path, rules=["CFG001"]).active == []

    def test_missing_serializer_flagged(self, tmp_path):
        make_tree(tmp_path, {
            "repro/core/config.py": _CONFIG_SOURCE,
            "repro/core/manifest.py": """
                FORMAT = "v1"
            """,
        })
        report = run_lint(tmp_path, rules=["CFG001"])
        assert active_rules(report) == ["CFG001"]
        assert "config_to_dict" in report.active[0].message


# ---------------------------------------------------------------------------
# OBS: metric catalog single-sourcing
# ---------------------------------------------------------------------------
_DECLARATIONS_SOURCE = """
    from repro.obs.metrics import MetricSpec

    DECLARED_METRICS = (
        MetricSpec("rose_sync_steps_total", "counter", "steps"),
        MetricSpec(name="rose_link_bytes_total", kind="counter", help="bytes"),
    )
"""


class TestObs001DeclaredMetrics:
    def test_undeclared_metric_name_flagged(self, tmp_path):
        make_tree(tmp_path, {
            "repro/obs/declarations.py": _DECLARATIONS_SOURCE,
            "repro/core/synchronizer.py": """
                def step(registry):
                    registry.inc("rose_sync_stepz_total")
            """,
        })
        report = run_lint(tmp_path, rules=["OBS001"])
        assert active_rules(report) == ["OBS001"]
        assert "rose_sync_stepz_total" in report.active[0].message

    def test_declared_names_clean(self, tmp_path):
        make_tree(tmp_path, {
            "repro/obs/declarations.py": _DECLARATIONS_SOURCE,
            "repro/core/synchronizer.py": """
                def step(registry, stats):
                    registry.inc("rose_sync_steps_total")
                    # name= keyword declarations count too:
                    registry.advance_to("rose_link_bytes_total", stats.total)
            """,
        })
        assert run_lint(tmp_path, rules=["OBS001"]).active == []

    def test_metricspec_outside_declarations_flagged(self, tmp_path):
        make_tree(tmp_path, {
            "repro/obs/declarations.py": _DECLARATIONS_SOURCE,
            "repro/app/controller.py": """
                from repro.obs.metrics import MetricSpec

                EXTRA = MetricSpec("rose_extra_total", "counter", "sneaky")
            """,
        })
        report = run_lint(tmp_path, rules=["OBS001"])
        assert active_rules(report) == ["OBS001"]
        assert "MetricSpec" in report.active[0].message

    def test_declarations_module_itself_clean(self, tmp_path):
        make_tree(tmp_path, {
            "repro/obs/declarations.py": _DECLARATIONS_SOURCE,
        })
        assert run_lint(tmp_path, rules=["OBS001"]).active == []

    def test_non_metric_strings_ignored(self, tmp_path):
        make_tree(tmp_path, {
            "repro/obs/declarations.py": _DECLARATIONS_SOURCE,
            "repro/core/cosim.py": """
                def collect(registry, payload):
                    registry.inc(1)             # non-string first arg
                    payload.get("rose_sync_steps_total")  # not a registry method
                    registry.set("progress", 1.0)         # no rose_ prefix
            """,
        })
        assert run_lint(tmp_path, rules=["OBS001"]).active == []

    def test_missing_declarations_module_skips_name_check(self, tmp_path):
        # Fixture trees without the catalog only get the MetricSpec check.
        make_tree(tmp_path, {
            "repro/core/synchronizer.py": """
                def step(registry):
                    registry.inc("rose_sync_steps_total")
            """,
        })
        assert run_lint(tmp_path, rules=["OBS001"]).active == []

    def test_finding_can_be_baselined(self, tmp_path):
        make_tree(tmp_path, {
            "repro/obs/declarations.py": _DECLARATIONS_SOURCE,
            "repro/core/synchronizer.py": """
                def step(registry):
                    registry.inc("rose_legacy_total")
            """,
        })
        report = run_lint(tmp_path, rules=["OBS001"])
        baseline = Baseline.from_diagnostics(
            report.diagnostics, path=tmp_path / "lint-baseline.json"
        )
        rerun = run_lint(tmp_path, rules=["OBS001"], baseline=baseline)
        assert rerun.active == []
        assert [d.rule for d in rerun.diagnostics if d.baselined] == ["OBS001"]


# ---------------------------------------------------------------------------
# RES: resilience rules
# ---------------------------------------------------------------------------
class TestRes001BoundedRetryLoops:
    def test_flags_while_true_without_exit(self, tmp_path):
        make_tree(tmp_path, {
            "repro/sweep/poller.py": """
                def spin(task):
                    while True:
                        task.try_once()
            """,
        })
        report = run_lint(tmp_path, rules=["RES001"])
        assert active_rules(report) == ["RES001"]

    def test_own_break_is_bounded(self, tmp_path):
        make_tree(tmp_path, {
            "repro/sweep/poller.py": """
                def spin(task):
                    while True:
                        if task.try_once():
                            break
            """,
        })
        assert run_lint(tmp_path, rules=["RES001"]).active == []

    def test_nested_loop_break_does_not_count(self, tmp_path):
        make_tree(tmp_path, {
            "repro/sweep/poller.py": """
                def spin(tasks):
                    while True:
                        for task in tasks:
                            if task.try_once():
                                break
            """,
        })
        report = run_lint(tmp_path, rules=["RES001"])
        assert active_rules(report) == ["RES001"]

    def test_raise_and_return_are_exits(self, tmp_path):
        make_tree(tmp_path, {
            "repro/sweep/poller.py": """
                def spin_raise(task):
                    while True:
                        if task.done():
                            raise RuntimeError("poison")

                def spin_return(task):
                    while True:
                        if task.done():
                            return task
            """,
        })
        assert run_lint(tmp_path, rules=["RES001"]).active == []

    def test_condition_bounded_loop_is_clean(self, tmp_path):
        make_tree(tmp_path, {
            "repro/sweep/poller.py": """
                def drain(queue, inflight):
                    while queue or inflight:
                        queue.pop()
            """,
        })
        assert run_lint(tmp_path, rules=["RES001"]).active == []

    def test_outside_sweep_is_out_of_scope(self, tmp_path):
        make_tree(tmp_path, {
            "repro/app/controller.py": """
                def spin(task):
                    while True:
                        task.try_once()
            """,
        })
        assert run_lint(tmp_path, rules=["RES001"]).active == []


class TestRes002BareSleep:
    def test_flags_time_sleep_in_sweep(self, tmp_path):
        make_tree(tmp_path, {
            "repro/sweep/runner.py": """
                import time

                def retry(task):
                    time.sleep(0.5)
            """,
        })
        report = run_lint(tmp_path, rules=["RES002"])
        assert active_rules(report) == ["RES002"]
        assert "backoff_sleep" in report.active[0].hint

    def test_flags_from_import_alias(self, tmp_path):
        make_tree(tmp_path, {
            "repro/sweep/runner.py": """
                from time import sleep

                def retry(task):
                    sleep(0.5)
            """,
        })
        assert active_rules(run_lint(tmp_path, rules=["RES002"])) == ["RES002"]

    def test_resilience_module_is_blessed(self, tmp_path):
        make_tree(tmp_path, {
            "repro/sweep/resilience.py": """
                import time

                def backoff_sleep(policy, key, attempt):
                    time.sleep(policy.backoff_delay(key, attempt))
            """,
        })
        assert run_lint(tmp_path, rules=["RES002"]).active == []

    def test_inline_waiver(self, tmp_path):
        make_tree(tmp_path, {
            "repro/sweep/chaos.py": """
                import time

                def hang(seconds):
                    time.sleep(seconds)  # repro: allow[RES002]
            """,
        })
        report = run_lint(tmp_path, rules=["RES002"])
        assert report.active == []
        assert [d.rule for d in report.diagnostics if d.waived] == ["RES002"]

    def test_outside_sweep_is_out_of_scope(self, tmp_path):
        make_tree(tmp_path, {
            "repro/env/simulator.py": """
                import time

                def pace():
                    time.sleep(0.1)
            """,
        })
        assert run_lint(tmp_path, rules=["RES002"]).active == []


# ---------------------------------------------------------------------------
# SRV: serve-layer clock injection
# ---------------------------------------------------------------------------
class TestSrv001DirectTime:
    def test_flags_direct_time_calls_in_serve(self, tmp_path):
        make_tree(tmp_path, {
            "repro/serve/scheduler.py": """
                import time

                def lease_deadline(seconds):
                    return time.monotonic() + seconds

                def park():
                    time.sleep(0.1)
            """,
        })
        report = run_lint(tmp_path, rules=["SRV001"])
        assert active_rules(report) == ["SRV001", "SRV001"]
        assert "Clock" in report.active[0].hint

    def test_flags_every_host_time_read(self, tmp_path):
        # The same wall-clock set DET002 bans on simulation paths.
        source = """
            import datetime
            import time

            def stamp():
                return (datetime.datetime.now(), time.process_time(), time.time_ns())
        """
        make_tree(tmp_path, {
            "repro/serve/scheduler.py": source,
            "repro/serve/clock.py": source,
        })
        report = run_lint(tmp_path, rules=["SRV001"])
        assert [(d.path, d.rule) for d in report.active] == [
            ("repro/serve/scheduler.py", "SRV001"),
        ] * 3
        assert "datetime.datetime.now()" in report.active[0].message

    def test_clock_module_is_blessed(self, tmp_path):
        make_tree(tmp_path, {
            "repro/serve/clock.py": """
                import time

                class SystemClock:
                    def now(self):
                        return time.monotonic()

                    def sleep(self, seconds):
                        time.sleep(seconds)
            """,
        })
        assert run_lint(tmp_path, rules=["SRV001"]).active == []

    def test_injected_clock_calls_are_clean(self, tmp_path):
        make_tree(tmp_path, {
            "repro/serve/scheduler.py": """
                def lease_deadline(clock, seconds):
                    return clock.now() + seconds
            """,
        })
        assert run_lint(tmp_path, rules=["SRV001"]).active == []

    def test_inline_waiver(self, tmp_path):
        make_tree(tmp_path, {
            "repro/serve/workers.py": """
                import time

                def profile_step(worker):
                    start = time.perf_counter()  # repro: allow[SRV001] local profiling only
                    worker.step()
                    return time.perf_counter() - start  # repro: allow[SRV001] local profiling only
            """,
        })
        report = run_lint(tmp_path, rules=["SRV001"])
        assert report.active == []
        assert [d.rule for d in report.diagnostics if d.waived] == [
            "SRV001", "SRV001",
        ]

    def test_outside_serve_is_out_of_scope(self, tmp_path):
        make_tree(tmp_path, {
            "repro/sweep/cache.py": """
                import time

                def stamp():
                    return time.time()
            """,
        })
        assert run_lint(tmp_path, rules=["SRV001"]).active == []

    def test_shipped_serve_tree_is_clock_clean(self):
        root = Path(__file__).resolve().parent.parent / "src"
        report = run_lint(root, rules=["SRV001"])
        assert active_rules(report) == []
        # Every time.* call under repro/serve/ lives in the blessed
        # clock module, which the rule excludes entirely.
        assert report.diagnostics == []


class TestScn001GlobalRng:
    """DET001 over the scenario/fuzzing package (the former SCN001 cases).

    The fuzzer's corpus is replayable only while every draw comes from
    the campaign's injected seeded ``random.Random``.
    """

    def test_flags_module_level_rng_calls(self, tmp_path):
        make_tree(tmp_path, {
            "repro/scenario/mutators.py": """
                import random

                import numpy as np

                def jiggle(value):
                    return value + random.uniform(-1.0, 1.0)

                def noise(shape):
                    return np.random.normal(size=shape)
            """,
        })
        report = run_lint(tmp_path, rules=["DET001"])
        assert active_rules(report) == ["DET001", "DET001"]
        assert "seeded" in report.active[0].hint

    def test_injected_generator_is_clean(self, tmp_path):
        make_tree(tmp_path, {
            "repro/scenario/mutators.py": """
                def jiggle(rng, value):
                    return value + rng.uniform(-1.0, 1.0)
            """,
        })
        assert run_lint(tmp_path, rules=["DET001"]).active == []

    def test_seeded_constructors_are_allowed(self, tmp_path):
        make_tree(tmp_path, {
            "repro/scenario/fuzz.py": """
                import random

                import numpy as np

                def campaign_rng(seed):
                    return random.Random(seed)

                def kernel_rng(seed):
                    return np.random.default_rng(seed)
            """,
        })
        assert run_lint(tmp_path, rules=["DET001"]).active == []

    def test_outside_scenario_is_out_of_scope(self, tmp_path):
        make_tree(tmp_path, {
            "repro/sweep/runner.py": """
                import random

                def reseed(seed):
                    random.seed(seed)
            """,
        })
        assert run_lint(tmp_path, rules=["DET001"]).active == []

    def test_shipped_scenario_tree_is_rng_clean(self):
        root = Path(__file__).resolve().parent.parent / "src"
        report = run_lint(root, rules=["DET001"])
        assert active_rules(report) == []
        # Every draw in the shipped tree (the fuzzer included) flows
        # through an injected seeded generator; nothing is even waived.
        assert report.diagnostics == []


# ---------------------------------------------------------------------------
# The call-ban table and its two readers
# ---------------------------------------------------------------------------
def _rng_and_clock_calls() -> list[str]:
    """One call per wall-clock and global-RNG entry of the table."""
    calls: list[str] = []
    for row in rows_for("DET001") + rows_for("DET002"):
        calls += sorted(row.names) + sorted(row.seeded)
        calls += [prefix + "random" for prefix in row.prefixes]
    return calls


class TestCallBanTable:
    @pytest.mark.parametrize("call", _rng_and_clock_calls())
    def test_lint_and_taint_agree(self, tmp_path, call):
        # Called with no argument, so seeded constructors count too.
        module = call.split(".")[0]
        make_tree(tmp_path, {
            "repro/core/probe.py": f"""
                import {module}

                def probe():
                    return {call}()
            """,
            "repro/sweep/signature.py": """
                from repro.sweep.canon import canon

                def mission_signature(result):
                    return canon(result)
            """,
            "repro/sweep/canon.py": f"""
                import {module}

                def canon(result):
                    return ({call}(), result)
            """,
        })
        lint = run_lint(tmp_path, rules=["DET001", "DET002"])
        [finding] = [d for d in lint.active if d.path == "repro/core/probe.py"]
        assert finding.rule in ("DET001", "DET002")
        assert f"{call}()" in finding.message
        [hazard] = run_lint(tmp_path, rules=["DEEP001"]).active
        assert hazard.path == "repro/sweep/canon.py"
        assert f"{call}()" in hazard.message and "mission_signature" in hazard.message


# ---------------------------------------------------------------------------
# Waivers and baseline
# ---------------------------------------------------------------------------
class TestWaivers:
    def test_inline_waiver_on_flagged_line(self, tmp_path):
        make_tree(tmp_path, {
            "repro/core/link.py": """
                import time

                def stamp():
                    return time.time()  # repro: allow[DET002] host-time by design
            """,
        })
        report = run_lint(tmp_path, rules=["DET002"])
        assert report.active == []
        assert len(report.diagnostics) == 1
        assert report.diagnostics[0].waived

    def test_waiver_on_line_above(self, tmp_path):
        make_tree(tmp_path, {
            "repro/core/link.py": """
                import time

                def stamp():
                    # repro: allow[DET002]
                    return time.time()
            """,
        })
        assert run_lint(tmp_path, rules=["DET002"]).active == []

    def test_waiver_for_other_rule_does_not_apply(self, tmp_path):
        make_tree(tmp_path, {
            "repro/core/link.py": """
                import time

                def stamp():
                    return time.time()  # repro: allow[NUM001]
            """,
        })
        assert active_rules(run_lint(tmp_path, rules=["DET002"])) == ["DET002"]

    def test_star_waiver_covers_everything(self, tmp_path):
        make_tree(tmp_path, {
            "repro/core/link.py": """
                import time

                def stamp():
                    return time.time()  # repro: allow[*]
            """,
        })
        assert run_lint(tmp_path, rules=["DET002"]).active == []


class TestStaleWaivers:
    def _run(self, root, rules):
        selected = [get_rule(r) for r in rules]
        return LintEngine(root, rules=selected, check_waivers=True).run()

    def test_stale_waiver_reported(self, tmp_path):
        make_tree(tmp_path, {
            "repro/core/link.py": """
                def stamp():
                    return 0  # repro: allow[DET002] nothing here anymore
            """,
        })
        [diag] = self._run(tmp_path, ["DET002"]).active
        assert diag.rule == "WAIVE001"
        assert diag.line == 3
        assert "allow[DET002]" in diag.message

    def test_consumed_waiver_not_reported(self, tmp_path):
        make_tree(tmp_path, {
            "repro/core/link.py": """
                import time

                def stamp():
                    return time.time()  # repro: allow[DET002] host time by design
            """,
        })
        report = self._run(tmp_path, ["DET002"])
        assert active_rules(report) == []

    def test_waiver_mentioned_in_docstring_is_not_a_waiver(self, tmp_path):
        make_tree(tmp_path, {
            "repro/core/link.py": '''
                """Waive with ``# repro: allow[DET002] reason`` at the site."""

                HELP = "add '# repro: allow[DET002]' to suppress"
                # The syntax is `# repro: allow[DET002]`, mid-comment.
            ''',
        })
        assert self._run(tmp_path, ["DET002"]).active == []

    def test_stale_waiver_is_not_inline_waivable(self, tmp_path):
        make_tree(tmp_path, {
            "repro/core/link.py": """
                def stamp():
                    return 0  # repro: allow[DET002,WAIVE001]
            """,
        })
        # A waiver cannot excuse its own staleness — it would never rot.
        assert active_rules(self._run(tmp_path, ["DET002"])) == ["WAIVE001"]

    def test_stale_waiver_can_be_baselined(self, tmp_path):
        make_tree(tmp_path, {
            "repro/core/link.py": """
                def stamp():
                    return 0  # repro: allow[DET002]
            """,
        })
        baseline = Baseline(entries=[
            {"rule": "WAIVE001", "path": "repro/core/link.py", "line": 3},
        ])
        report = LintEngine(
            tmp_path, rules=[get_rule("DET002")], baseline=baseline,
            check_waivers=True,
        ).run()
        assert report.active == []
        assert [d.baselined for d in report.diagnostics] == [True]

    def test_without_flag_stale_waivers_stay_silent(self, tmp_path):
        make_tree(tmp_path, {
            "repro/core/link.py": """
                def stamp():
                    return 0  # repro: allow[DET002]
            """,
        })
        assert run_lint(tmp_path, rules=["DET002"]).diagnostics == []


class TestBaseline:
    def _tree(self, tmp_path):
        return make_tree(tmp_path / "src", {
            "repro/core/link.py": """
                import time

                def stamp():
                    return time.time()
            """,
        })

    def test_baselined_finding_suppressed_not_hidden(self, tmp_path):
        root = self._tree(tmp_path)
        first = run_lint(root, rules=["DET002"])
        baseline = Baseline.from_diagnostics(first.diagnostics)
        report = run_lint(root, rules=["DET002"], baseline=baseline)
        assert report.active == [] and report.ok
        assert [d.baselined for d in report.diagnostics] == [True]

    def test_write_load_round_trip(self, tmp_path):
        root = self._tree(tmp_path)
        first = run_lint(root, rules=["DET002"])
        path = tmp_path / "lint-baseline.json"
        Baseline.from_diagnostics(first.diagnostics).write(path)
        loaded = Baseline.load(path)
        assert len(loaded) == 1
        assert run_lint(root, rules=["DET002"], baseline=loaded).ok

    def test_stale_entries_reported(self, tmp_path):
        root = self._tree(tmp_path)
        baseline = Baseline(entries=[
            {"rule": "DET002", "path": "repro/core/link.py", "line": 5},
            {"rule": "DET002", "path": "repro/core/gone.py", "line": 1},
        ])
        report = run_lint(root, rules=["DET002"], baseline=baseline)
        assert [e["path"] for e in report.stale_baseline] == ["repro/core/gone.py"]

    def test_missing_file_loads_empty(self, tmp_path):
        assert len(Baseline.load(tmp_path / "absent.json")) == 0

    def test_bad_format_raises(self, tmp_path):
        path = tmp_path / "lint-baseline.json"
        path.write_text(json.dumps({"format": "bogus/9", "entries": []}))
        with pytest.raises(ConfigError):
            Baseline.load(path)

    def test_baseline_path_discovery(self, tmp_path):
        root = tmp_path / "src"
        root.mkdir()
        (tmp_path / "lint-baseline.json").write_text(
            json.dumps({"format": "rose-lint-baseline/1", "entries": []})
        )
        assert baseline_path_for(root) == tmp_path / "lint-baseline.json"


# ---------------------------------------------------------------------------
# Engine mechanics
# ---------------------------------------------------------------------------
class TestEngine:
    def test_parse_error_reported_not_fatal(self, tmp_path):
        make_tree(tmp_path, {
            "repro/core/good.py": "x = 1\n",
            "repro/core/bad.py": "def broken(:\n",
        })
        report = run_lint(tmp_path)
        assert report.files_scanned == 1
        assert len(report.parse_errors) == 1
        assert "repro/core/bad.py" in report.parse_errors[0]
        assert not report.ok

    def test_empty_file_scans_clean(self, tmp_path):
        make_tree(tmp_path, {"repro/core/empty.py": ""})
        report = run_lint(tmp_path)
        assert report.files_scanned == 1
        assert report.ok

    def test_files_outside_root_are_not_scanned(self, tmp_path):
        make_tree(tmp_path, {
            "src/repro/core/ok.py": "x = 1\n",
            "scripts/helper.py": "import time\nx = time.time()\n",
        })
        report = run_lint(tmp_path / "src", rules=["DET002"])
        assert report.files_scanned == 1
        assert report.active == []

    def test_duplicate_rule_registration_raises(self):
        from repro.analysis.lint.registry import rule

        with pytest.raises(ValueError, match="duplicate rule id 'DET002'"):
            rule("DET002", "again", "collides with the real DET002")(
                lambda module, project: []
            )
        # The original registration survives the failed attempt.
        assert get_rule("DET002").title != "again"

    def test_diagnostics_sorted_by_location(self, tmp_path):
        make_tree(tmp_path, {
            "repro/core/b.py": "import time\nx = time.time()\n",
            "repro/core/a.py": "import time\ny = time.time()\nz = time.time()\n",
        })
        report = run_lint(tmp_path, rules=["DET002"])
        locations = [(d.path, d.line) for d in report.active]
        assert locations == sorted(locations)

    def test_ordering_breaks_ties_on_rule_id(self):
        # Same (path, line): order falls back to the rule id, and the
        # suppression flags never influence position.
        from repro.analysis.lint.diagnostics import Diagnostic

        srv = Diagnostic(path="repro/a.py", line=3, rule="SRV001", message="m")
        det = Diagnostic(path="repro/a.py", line=3, rule="DET002", message="m")
        waived_det = det.suppressed(waived=True)
        assert sorted([srv, det]) == [det, srv]
        assert sorted([srv, waived_det])[0].rule == "DET002"


# ---------------------------------------------------------------------------
# The shipped tree and the CLI
# ---------------------------------------------------------------------------
REPO_SRC = Path(__file__).resolve().parents[1] / "src"


class TestShippedTree:
    def test_shipped_tree_is_lint_clean(self):
        baseline = Baseline.load(baseline_path_for(REPO_SRC))
        report = LintEngine(REPO_SRC, baseline=baseline).run()
        assert report.ok, "\n".join(d.location for d in report.active)
        assert report.stale_baseline == []

    def test_lint_clean_oracle_registered(self):
        from repro.verify.oracles import registered_oracles

        oracle = registered_oracles()["lint-clean"]
        assert oracle.run() == []


class TestCli:
    def _tree(self, tmp_path):
        return make_tree(tmp_path / "src", {
            "repro/core/link.py": """
                import time

                def stamp():
                    return time.time()
            """,
        })

    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        root = make_tree(tmp_path / "src", {"repro/core/ok.py": "x = 1\n"})
        assert main(["lint", str(root)]) == 0

    def test_findings_exit_one(self, tmp_path, capsys):
        root = self._tree(tmp_path)
        code = main(["lint", str(root), "--no-baseline"])
        out = capsys.readouterr().out
        assert code == 1
        assert "DET002" in out and "repro/core/link.py" in out

    def test_bad_root_exits_two(self, tmp_path, capsys):
        assert main(["lint", str(tmp_path / "nope")]) == 2

    def test_unknown_rule_exits_two(self, tmp_path, capsys):
        root = self._tree(tmp_path)
        assert main(["lint", str(root), "--rule", "XYZ001"]) == 2

    def test_json_format(self, tmp_path, capsys):
        root = self._tree(tmp_path)
        code = main(["lint", str(root), "--format", "json", "--no-baseline"])
        data = json.loads(capsys.readouterr().out)
        assert code == 1
        assert data["format"] == "rose-lint-report/1"
        assert data["summary"]["active"] == 1
        [finding] = data["diagnostics"]
        assert finding["rule"] == "DET002"

    def test_sarif_format(self, tmp_path, capsys):
        root = self._tree(tmp_path)
        code = main(["lint", str(root), "--format", "sarif", "--no-baseline"])
        log = json.loads(capsys.readouterr().out)
        assert code == 1
        assert log["version"] == "2.1.0"
        [result] = log["runs"][0]["results"]
        assert result["ruleId"] == "DET002" and result["level"] == "error"

    def test_deep_flag_runs_project_rules(self, tmp_path, capsys):
        root = make_tree(tmp_path / "src", {
            "repro/sweep/signature.py": """
                import time

                def mission_signature(result):
                    return (time.time(), result)
            """,
        })
        # The default run skips deep rules (DET002 is out of scope here);
        # --deep finds the tainted root.
        assert main(["lint", str(root), "--no-baseline"]) == 0
        capsys.readouterr()
        code = main(["lint", str(root), "--deep", "--no-baseline"])
        out = capsys.readouterr().out
        assert code == 1
        assert "DEEP001" in out and "mission_signature" in out

    def test_check_waivers_flag(self, tmp_path, capsys):
        root = make_tree(tmp_path / "src", {
            "repro/core/ok.py": "x = 1  # repro: allow[DET002] gone\n",
        })
        assert main(["lint", str(root)]) == 0
        capsys.readouterr()
        code = main(["lint", str(root), "--check-waivers"])
        out = capsys.readouterr().out
        assert code == 1
        assert "WAIVE001" in out and "allow[DET002]" in out

    def test_prune_baseline_rewrites_file(self, tmp_path, capsys):
        root = self._tree(tmp_path)
        baseline_path = tmp_path / "lint-baseline.json"
        baseline_path.write_text(json.dumps({
            "format": "rose-lint-baseline/1",
            "entries": [
                {"rule": "DET002", "path": "repro/core/link.py", "line": 5},
                {"rule": "DET002", "path": "repro/core/gone.py", "line": 1},
            ],
        }))
        code = main([
            "lint", str(root), "--baseline", str(baseline_path), "--prune-baseline",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "pruned 1 stale baseline entr" in out
        kept = json.loads(baseline_path.read_text())["entries"]
        assert [e["path"] for e in kept] == ["repro/core/link.py"]

    def test_prune_baseline_conflicts_with_no_baseline(self, tmp_path, capsys):
        root = self._tree(tmp_path)
        assert main([
            "lint", str(root), "--no-baseline", "--prune-baseline",
        ]) == 2

    def test_rule_filter(self, tmp_path, capsys):
        root = self._tree(tmp_path)
        assert main(["lint", str(root), "--rule", "NUM001"]) == 0

    def test_write_baseline_then_clean(self, tmp_path, capsys):
        root = self._tree(tmp_path)
        assert main(["lint", str(root), "--write-baseline"]) == 0
        assert (tmp_path / "lint-baseline.json").is_file()
        assert main(["lint", str(root)]) == 0

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("DET001", "DET002", "DET003", "DET004",
                        "NUM001", "NUM002", "PROTO001", "PROTO002", "CFG001"):
            assert rule_id in out

    def test_shipped_tree_via_cli_default_root(self, capsys):
        assert main(["lint"]) == 0
