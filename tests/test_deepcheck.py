"""Tests for the repro.analysis.deepcheck whole-program passes.

Fixture trees replicate the real layout (``repro/...`` under a scanned
source root) and, where a pass keys on real qualnames — the taint roots,
the worker entry points — place fixture code at those exact paths so the
passes run precisely as they do on the shipped tree.
"""

from __future__ import annotations

import json
import textwrap
import time
from pathlib import Path

from repro.analysis.deepcheck import (
    DEFAULT_TAINT_ROOTS,
    PROTOCOL_MACHINE,
    WORKER_ENTRYPOINTS,
    build_call_graph,
    build_symbols,
    check_sequence,
    module_name,
    render_sarif,
)
from repro.analysis.lint import LintEngine, get_rule
from repro.analysis.lint.engine import ProjectModel


def make_tree(root: Path, files: dict[str, str]) -> Path:
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    return root


def load_model(root: Path) -> ProjectModel:
    project, errors = LintEngine(root).load()
    assert errors == []
    return project


def run_deep(root: Path, rules: list[str]):
    return LintEngine(root, rules=[get_rule(r) for r in rules]).run()


# ---------------------------------------------------------------------------
# Symbol table
# ---------------------------------------------------------------------------
class TestModuleName:
    def test_plain_module(self):
        assert module_name("repro/core/bridge.py") == "repro.core.bridge"

    def test_package_init(self):
        assert module_name("repro/core/__init__.py") == "repro.core"


class TestSymbols:
    def _symbols(self, tmp_path):
        make_tree(tmp_path, {
            "repro/core/widget.py": """
                import threading

                _CACHE = {}
                _LIMIT = 8
                _LOCK = threading.Lock()

                def top():
                    return 1

                class Base:
                    def shared(self):
                        return 0

                class Widget(Base):
                    registry = []

                    def __init__(self):
                        self.n = 0

                    def step(self):
                        return self.n
            """,
        })
        return build_symbols(load_model(tmp_path))

    def test_functions_and_methods_indexed(self, tmp_path):
        symbols = self._symbols(tmp_path)
        assert "repro.core.widget.top" in symbols.functions
        assert "repro.core.widget.Widget.step" in symbols.functions
        info = symbols.functions["repro.core.widget.Widget.step"]
        assert info.class_name == "Widget" and info.name == "step"

    def test_globals_with_mutability(self, tmp_path):
        symbols = self._symbols(tmp_path)
        assert symbols.globals["repro.core.widget._CACHE"].mutable
        assert not symbols.globals["repro.core.widget._LIMIT"].mutable
        # Class-level attributes are shared state too.
        assert symbols.globals["repro.core.widget.Widget.registry"].mutable

    def test_method_resolution_walks_bases(self, tmp_path):
        symbols = self._symbols(tmp_path)
        widget = symbols.resolve_class("repro.core.widget.Widget")
        assert widget is not None
        inherited = symbols.method_on(widget, "shared")
        assert inherited is not None
        assert inherited.qualname == "repro.core.widget.Base.shared"

    def test_resolve_class_by_unambiguous_bare_name(self, tmp_path):
        symbols = self._symbols(tmp_path)
        assert symbols.resolve_class("Widget") is not None
        assert symbols.resolve_class("NoSuchClass") is None


# ---------------------------------------------------------------------------
# Call graph
# ---------------------------------------------------------------------------
class TestCallGraph:
    def _graph(self, tmp_path):
        make_tree(tmp_path, {
            "repro/core/alpha.py": """
                from repro.core.beta import helper

                def entry():
                    helper()
                    local()

                def local():
                    return 2
            """,
            "repro/core/beta.py": """
                def helper():
                    return Gadget().spin()

                class Gadget:
                    def __init__(self):
                        self.x = 1

                    def spin(self):
                        return self.turn()

                    def turn(self):
                        return self.x
            """,
        })
        symbols = build_symbols(load_model(tmp_path))
        return build_call_graph(symbols)

    def test_direct_edge_through_import_alias(self, tmp_path):
        graph = self._graph(tmp_path)
        callees = {e.callee for e in graph.callees("repro.core.alpha.entry")}
        assert "repro.core.beta.helper" in callees
        assert "repro.core.alpha.local" in callees

    def test_constructor_edge(self, tmp_path):
        graph = self._graph(tmp_path)
        kinds = {(e.callee, e.kind) for e in graph.callees("repro.core.beta.helper")}
        assert ("repro.core.beta.Gadget.__init__", "class") in kinds

    def test_self_edge(self, tmp_path):
        graph = self._graph(tmp_path)
        edges = graph.callees("repro.core.beta.Gadget.spin")
        assert [(e.callee, e.kind) for e in edges] == [
            ("repro.core.beta.Gadget.turn", "self")
        ]

    def test_reachability_with_witness_chain(self, tmp_path):
        graph = self._graph(tmp_path)
        reachable = graph.reachable_from(["repro.core.alpha.entry"])
        assert "repro.core.beta.Gadget.turn" in reachable
        chain = graph.chain(reachable, "repro.core.beta.Gadget.turn")
        assert chain[0] == "repro.core.alpha.entry"
        assert chain[-1] == "repro.core.beta.Gadget.turn"
        # Every hop in the witness is a real edge endpoint.
        assert all(q in reachable for q in chain)


# ---------------------------------------------------------------------------
# DEEP001: determinism taint
# ---------------------------------------------------------------------------
class TestDeep001Taint:
    def test_hazard_two_calls_below_root_is_found(self, tmp_path):
        make_tree(tmp_path, {
            "repro/sweep/signature.py": """
                from repro.sweep.canon import canon

                def mission_signature(result):
                    return canon(result)
            """,
            "repro/sweep/canon.py": """
                from repro.sweep.stamp import stamp

                def canon(result):
                    return stamp(result)
            """,
            "repro/sweep/stamp.py": """
                import time

                def stamp(result):
                    return (time.time(), result)
            """,
        })
        report = run_deep(tmp_path, ["DEEP001"])
        [diag] = report.active
        assert diag.rule == "DEEP001"
        assert diag.path == "repro/sweep/stamp.py"
        assert "wall-clock read time.time()" in diag.message
        # The witness chain names the root and every hop to the hazard.
        assert "mission_signature" in diag.message
        assert "canon" in diag.message

    def test_os_entropy_rngs_below_root_are_found(self, tmp_path):
        make_tree(tmp_path, {
            "repro/sweep/signature.py": """
                from repro.sweep.canon import canon

                def mission_signature(result):
                    return canon(result)
            """,
            "repro/sweep/canon.py": """
                import random
                import numpy as np

                def canon(result):
                    salt = random.SystemRandom(7).random()
                    noise = np.random.default_rng().normal()
                    return (salt, noise, result)
            """,
        })
        report = run_deep(tmp_path, ["DEEP001"])
        assert [(d.path, d.line) for d in report.active] == [
            ("repro/sweep/canon.py", 6), ("repro/sweep/canon.py", 7),
        ]
        assert "random.SystemRandom()" in report.active[0].message
        assert "numpy.random.default_rng()" in report.active[1].message

    def test_same_hazard_outside_slice_is_ignored(self, tmp_path):
        make_tree(tmp_path, {
            "repro/sweep/signature.py": """
                def mission_signature(result):
                    return repr(result)
            """,
            "repro/sweep/stamp.py": """
                import time

                def stamp(result):
                    return (time.time(), result)
            """,
        })
        assert run_deep(tmp_path, ["DEEP001"]).active == []

    def test_unsorted_items_iteration_flagged(self, tmp_path):
        make_tree(tmp_path, {
            "repro/sweep/signature.py": """
                def canonical_payload(result):
                    return [k for k, v in result.items()]
            """,
        })
        [diag] = run_deep(tmp_path, ["DEEP001"]).active
        assert "unsorted .items() iteration" in diag.message

    def test_waiver_at_hazard_site_suppresses(self, tmp_path):
        make_tree(tmp_path, {
            "repro/sweep/signature.py": """
                import os

                def mission_signature(result):
                    # repro: allow[DEEP001] salt comes from the host by design
                    return (os.getenv("SALT"), result)
            """,
        })
        report = run_deep(tmp_path, ["DEEP001"])
        assert report.active == []
        assert [d.waived for d in report.diagnostics] == [True]

    def test_shipped_roots_exist_in_shipped_tree(self):
        symbols = build_symbols(load_model(REPO_SRC))
        for root in DEFAULT_TAINT_ROOTS:
            assert root in symbols.functions, root


# ---------------------------------------------------------------------------
# DEEP002: fork/thread races
# ---------------------------------------------------------------------------
class TestDeep002Races:
    def test_unsynchronized_global_write_from_worker_flagged(self, tmp_path):
        make_tree(tmp_path, {
            "repro/sweep/runner.py": """
                _CACHE = {}

                def _execute_task(task):
                    _CACHE[task.name] = task
                    return task
            """,
        })
        [diag] = run_deep(tmp_path, ["DEEP002"]).active
        assert diag.rule == "DEEP002"
        assert "_CACHE" in diag.message
        assert "_execute_task" in diag.message

    def test_write_via_helper_is_still_caught(self, tmp_path):
        make_tree(tmp_path, {
            "repro/sweep/runner.py": """
                from repro.sweep.memo import remember

                def _execute_task(task):
                    remember(task)
                    return task
            """,
            "repro/sweep/memo.py": """
                _SEEN = []

                def remember(task):
                    _SEEN.append(task)
            """,
        })
        [diag] = run_deep(tmp_path, ["DEEP002"]).active
        assert diag.path == "repro/sweep/memo.py"
        assert ".append() on module-level _SEEN" in diag.message

    def test_pool_initializer_writes_are_blessed(self, tmp_path):
        make_tree(tmp_path, {
            "repro/sweep/runner.py": """
                _CACHE = {}

                def _pool_initializer(seed):
                    _CACHE.clear()

                def _execute_task(task):
                    _CACHE[task.name] = task
                    return task
            """,
        })
        # The initializer's own write is blessed AND it marks _CACHE
        # transient, so the worker-side write is the design, not a race.
        assert run_deep(tmp_path, ["DEEP002"]).active == []

    def test_registered_reset_hook_blesses_its_global(self, tmp_path):
        make_tree(tmp_path, {
            "repro/sweep/runner.py": """
                from repro.sweep import chaos

                def register_transient_reset(hook):
                    pass

                register_transient_reset(chaos.reset_state)

                def _execute_task(task):
                    chaos.note(task)
                    return task
            """,
            "repro/sweep/chaos.py": """
                _LOG = []

                def reset_state():
                    _LOG.clear()

                def note(task):
                    _LOG.append(task)
            """,
        })
        assert run_deep(tmp_path, ["DEEP002"]).active == []

    def test_lock_guarded_write_is_allowed(self, tmp_path):
        make_tree(tmp_path, {
            "repro/sweep/runner.py": """
                import threading

                _CACHE = {}
                _LOCK = threading.Lock()

                def _execute_task(task):
                    with _LOCK:
                        _CACHE[task.name] = task
                    return task
            """,
        })
        assert run_deep(tmp_path, ["DEEP002"]).active == []

    def test_setdefault_memo_idiom_is_allowed(self, tmp_path):
        make_tree(tmp_path, {
            "repro/sweep/runner.py": """
                _CACHE = {}

                def _execute_task(task):
                    return _CACHE.setdefault(task.name, task)
            """,
        })
        assert run_deep(tmp_path, ["DEEP002"]).active == []

    def test_local_variables_are_not_flagged(self, tmp_path):
        make_tree(tmp_path, {
            "repro/sweep/runner.py": """
                def _execute_task(task):
                    cache = {}
                    cache[task.name] = task
                    cache2 = []
                    cache2.append(task)
                    return cache
            """,
        })
        assert run_deep(tmp_path, ["DEEP002"]).active == []

    def test_shipped_worker_entrypoints_exist(self):
        symbols = build_symbols(load_model(REPO_SRC))
        for entry in WORKER_ENTRYPOINTS:
            assert entry in symbols.functions, entry


# ---------------------------------------------------------------------------
# DEEP003: protocol conformance
# ---------------------------------------------------------------------------
class TestCheckSequence:
    def test_full_handshake_accepted(self):
        events = [(i, 0, op) for i, op in enumerate(
            ["set_steps", "grant", "done", "grant", "done", "shutdown"]
        )]
        assert check_sequence(events) is None

    def test_watchdog_regrant_accepted(self):
        events = [(1, 0, "grant"), (2, 0, "grant"), (3, 0, "done")]
        assert check_sequence(events) is None

    def test_grant_after_shutdown_rejected(self):
        events = [(1, 0, "shutdown"), (2, 0, "grant")]
        violation = check_sequence(events)
        assert violation is not None
        line, _col, op, live = violation
        assert (line, op, live) == (2, "grant", "down")

    def test_set_steps_after_grant_rejected(self):
        # Configuration cannot follow a grant without a reset between.
        events = [(1, 0, "grant"), (2, 0, "set_steps")]
        assert check_sequence(events) is not None

    def test_every_machine_target_state_exists(self):
        for state, transitions in PROTOCOL_MACHINE.items():
            for op, target in transitions.items():
                assert target in PROTOCOL_MACHINE, (state, op, target)


class TestDeep003Protocol:
    def test_out_of_order_grant_after_shutdown_flagged(self, tmp_path):
        make_tree(tmp_path, {
            "repro/core/bridge.py": """
                from repro.core.packets import sync_grant, sync_shutdown

                def teardown(link):
                    link.send(sync_shutdown())
                    link.send(sync_grant(1))
            """,
        })
        [diag] = run_deep(tmp_path, ["DEEP003"]).active
        assert diag.rule == "DEEP003"
        assert "protocol op 'grant' is impossible" in diag.message
        assert "sequence: shutdown -> grant" in diag.message

    def test_legal_handshake_passes(self, tmp_path):
        make_tree(tmp_path, {
            "repro/core/bridge.py": """
                from repro.core.packets import sync_grant, sync_set_steps

                def drive(link):
                    link.send(sync_set_steps(8))
                    link.send(sync_grant(1))
            """,
        })
        assert run_deep(tmp_path, ["DEEP003"]).active == []

    def test_single_op_functions_are_skipped(self, tmp_path):
        make_tree(tmp_path, {
            "repro/core/bridge.py": """
                from repro.core.packets import sync_grant

                def regrant(link):
                    link.send(sync_grant(1))
            """,
        })
        assert run_deep(tmp_path, ["DEEP003"]).active == []

    def test_awaiting_ack_counts_as_done(self, tmp_path):
        make_tree(tmp_path, {
            "repro/core/bridge.py": """
                from repro.core.packets import PacketType, sync_shutdown

                def finish(link, packet):
                    link.send(sync_shutdown())
                    return packet.ptype == PacketType.SYNC_DONE
            """,
        })
        [diag] = run_deep(tmp_path, ["DEEP003"]).active
        assert "protocol op 'done' is impossible" in diag.message

    def test_awaiting_ack_through_module_alias_counts_as_done(self, tmp_path):
        make_tree(tmp_path, {
            "repro/core/bridge.py": """
                from repro.core.packets import PacketType, sync_shutdown

                _SYNC_DONE = PacketType.SYNC_DONE

                def finish(link, packet):
                    link.send(sync_shutdown())
                    return packet.ptype == _SYNC_DONE
            """,
        })
        [diag] = run_deep(tmp_path, ["DEEP003"]).active
        assert "protocol op 'done' is impossible" in diag.message


# ---------------------------------------------------------------------------
# SARIF export
# ---------------------------------------------------------------------------
class TestSarif:
    def _report(self, tmp_path, waive: bool = False):
        waiver = "  # repro: allow[DEEP001] fixture" if waive else ""
        make_tree(tmp_path, {
            "repro/sweep/signature.py": f"""
                import time

                def mission_signature(result):
                    return (time.time(), result){waiver}
            """,
        })
        return run_deep(tmp_path, ["DEEP001"])

    def test_active_finding_is_an_error_result(self, tmp_path):
        report = self._report(tmp_path)
        log = json.loads(render_sarif(report.diagnostics))
        assert log["version"] == "2.1.0"
        [run] = log["runs"]
        [result] = run["results"]
        assert result["ruleId"] == "DEEP001"
        assert result["level"] == "error"
        location = result["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"] == "repro/sweep/signature.py"
        assert location["region"]["startLine"] == 5
        # The rule catalog carries the descriptor for the emitted rule.
        assert [r["id"] for r in run["tool"]["driver"]["rules"]] == ["DEEP001"]

    def test_waived_finding_is_suppressed_note(self, tmp_path):
        report = self._report(tmp_path, waive=True)
        [result] = json.loads(render_sarif(report.diagnostics))["runs"][0]["results"]
        assert result["level"] == "note"
        assert result["suppressions"] == [
            {"kind": "inSource", "justification": "inline '# repro: allow' waiver"}
        ]

    def test_output_is_deterministic(self, tmp_path):
        report = self._report(tmp_path)
        assert render_sarif(report.diagnostics) == render_sarif(
            list(reversed(report.diagnostics))
        )


# ---------------------------------------------------------------------------
# The shipped tree
# ---------------------------------------------------------------------------
REPO_SRC = Path(__file__).resolve().parents[1] / "src"


class TestShippedTree:
    def test_deep_lint_clean_and_fast(self):
        started = time.monotonic()
        report = LintEngine(REPO_SRC, deep=True, check_waivers=True).run()
        elapsed = time.monotonic() - started
        assert report.ok, "\n".join(
            f"{d.path}:{d.line} {d.rule} {d.message}" for d in report.active
        )
        assert elapsed < 30.0, f"deep lint took {elapsed:.1f}s (budget 30s)"

    def test_signature_slice_is_analyzed_not_vacuous(self):
        # The taint pass proves something only if the roots resolve and
        # their slice actually spans modules.
        symbols = build_symbols(load_model(REPO_SRC))
        graph = build_call_graph(symbols)
        reachable = graph.reachable_from(
            [r for r in DEFAULT_TAINT_ROOTS if r in symbols.functions]
        )
        spanned = {info.path for q, info in symbols.functions.items() if q in reachable}
        assert len(reachable) >= 10
        assert len(spanned) >= 3

    def test_deepcheck_rules_registered_as_deep(self):
        for rule_id in ("DEEP001", "DEEP002", "DEEP003"):
            assert get_rule(rule_id).deep
        assert not get_rule("WAIVE001").deep
