"""DEEP001 — determinism taint over the signature/cache-key call graph.

The path-scoped DET/SRV rules check *files*; this pass checks
*reachability*.  The functions that compute ``mission_signature``,
``config_key``/``code_fingerprint``, ``canonical_payload``,
``config_to_dict``, and ``report_signature`` are the identity of every
cache entry and golden trace — a wall-clock read or an unseeded RNG draw
**two calls deep** below any of them poisons the cache just as surely as
one in the file itself, and the per-file rules cannot see it.

The pass seeds a hazard set in every function body:

* the calls the DET001 (global or OS-entropy RNG, any global seeding)
  and DET002 (wall-clock reads) rows of the call-ban table
  (:mod:`repro.analysis.lint.bans`) name, with no path scope or
  blessed module — the per-file rules and this pass judge those calls
  from the same data;
* process environment reads (``os.environ``, ``os.getenv``) — host state
  that varies between machines;
* ``id()`` / ``hash()`` of objects — address- or
  ``PYTHONHASHSEED``-dependent values;
* order-sensitive iteration: raw ``.items()/.keys()/.values()`` views
  and set iteration, whose order is construction- or hash-dependent.

then propagates reachability from the signature roots through the call
graph.  A clean run is a proof (up to the resolver's documented limits)
that the whole slice is hazard-free; each finding carries the full
root → ... → hazard witness chain.  Intentional hazards are waived at
the *hazard site* with ``# repro: allow[DEEP001] reason``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from repro.analysis.deepcheck.callgraph import build_call_graph
from repro.analysis.deepcheck.symbols import FunctionInfo, build_symbols
from repro.analysis.lint.bans import first_ban, rows_for
from repro.analysis.lint.diagnostics import Diagnostic
from repro.analysis.lint.engine import Module, ProjectModel
from repro.analysis.lint.registry import project_rule
from repro.analysis.lint.rules_det import _iterables

#: The signature/cache-key slice: every function whose output becomes a
#: content hash.  Roots absent from a tree are skipped, so fixture trees
#: exercise the pass with any subset.
DEFAULT_TAINT_ROOTS = (
    "repro.sweep.signature.mission_signature",
    "repro.sweep.signature.canonical_payload",
    "repro.sweep.fingerprint.config_key",
    "repro.sweep.fingerprint.code_fingerprint",
    "repro.core.manifest.config_to_dict",
    "repro.serve.service.report_signature",
)

#: The call-ban table's RNG (DET001) and wall-clock (DET002) rows, read
#: without their path scopes: the whole slice is a simulation path.
_TAINT_BANS = [rows_for("DET001"), rows_for("DET002")]


@dataclass(frozen=True)
class Hazard:
    """One nondeterminism source found in a function body."""

    line: int
    col: int
    description: str
    hint: str


def function_hazards(info: FunctionInfo, module: Module) -> list[Hazard]:
    """Every hazard in one function body (no reachability applied yet)."""
    out: list[Hazard] = []
    for node in ast.walk(info.node):
        if isinstance(node, ast.Call):
            out.extend(_call_hazards(node, module))
        elif isinstance(node, ast.Attribute):
            if module.dotted(node) == "os.environ":
                out.append(
                    Hazard(
                        line=node.lineno,
                        col=node.col_offset,
                        description="os.environ read (host state)",
                        hint="thread the value through the config instead of "
                        "reading the process environment",
                    )
                )
    for iterable in _iterables(info.node):
        hazard = _iteration_hazard(iterable, module)
        if hazard is not None:
            out.append(hazard)
    out.sort(key=lambda h: (h.line, h.col, h.description))
    return out


def _call_hazards(node: ast.Call, module: Module) -> list[Hazard]:
    dotted = module.call_name(node)
    if dotted is None:
        return []
    for rows in _TAINT_BANS:
        ban = first_ban(rows, dotted, node)
        if ban is not None:
            return [
                Hazard(
                    line=node.lineno,
                    col=node.col_offset,
                    description=ban.hazard.format(call=dotted),
                    hint=ban.hint,
                )
            ]
    # (os.environ.get/[] reads are caught by the os.environ attribute
    # check in function_hazards; only the bare-function form is a call.)
    if dotted == "os.getenv":
        return [
            Hazard(
                line=node.lineno,
                col=node.col_offset,
                description=f"process environment read {dotted}()",
                hint="thread the value through the config instead of "
                "reading the process environment",
            )
        ]
    if dotted in ("id", "hash"):
        return [
            Hazard(
                line=node.lineno,
                col=node.col_offset,
                description=f"{dotted}() of an object "
                "(address/PYTHONHASHSEED dependent)",
                hint="digest canonical content (sorted JSON, repr of floats) "
                "instead of object identity",
            )
        ]
    return []


def _iteration_hazard(iterable: ast.expr, module: Module) -> Hazard | None:
    if isinstance(iterable, ast.Set) or (
        isinstance(iterable, ast.Call)
        and module.call_name(iterable) in ("set", "frozenset")
    ):
        return Hazard(
            line=iterable.lineno,
            col=iterable.col_offset,
            description="set iteration (hash-order dependent)",
            hint="wrap in sorted(...)",
        )
    if (
        isinstance(iterable, ast.Call)
        and isinstance(iterable.func, ast.Attribute)
        and iterable.func.attr in ("items", "keys", "values")
    ):
        return Hazard(
            line=iterable.lineno,
            col=iterable.col_offset,
            description=f"unsorted .{iterable.func.attr}() iteration "
            "(construction-order dependent)",
            hint="iterate sorted(....items()) so downstream digests are "
            "order-independent",
        )
    return None


@project_rule(
    "DEEP001",
    "signature/cache-key call-graph slice must be hazard-free",
    "mission_signature, config_key/code_fingerprint, canonical_payload, "
    "config_to_dict, and report_signature are the identity of every cache "
    "entry and golden trace; a wall-clock read, unseeded RNG draw, environ "
    "read, id()/hash(), or unordered iteration anywhere in their transitive "
    "call graph silently splits or poisons the cache — the per-file DET "
    "rules cannot see past one module",
)
def deep001_determinism_taint(project: ProjectModel) -> list[Diagnostic]:
    symbols = build_symbols(project)
    graph = build_call_graph(symbols)
    roots = [r for r in DEFAULT_TAINT_ROOTS if r in symbols.functions]
    reachable = graph.reachable_from(roots)
    findings: dict[tuple[str, int, int, str], Diagnostic] = {}
    for qualname in sorted(reachable):
        info = symbols.functions[qualname]
        module = project.by_path[info.path]
        for hazard in function_hazards(info, module):
            key = (info.path, hazard.line, hazard.col, hazard.description)
            if key in findings:
                continue
            chain = " -> ".join(graph.chain(reachable, qualname))
            findings[key] = Diagnostic(
                path=info.path,
                line=hazard.line,
                col=hazard.col,
                rule="DEEP001",
                message=f"{hazard.description} in the signature slice "
                f"[{chain}]",
                hint=hazard.hint,
            )
    return [findings[key] for key in sorted(findings)]
