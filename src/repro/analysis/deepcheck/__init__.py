"""Whole-program semantic analysis (``python -m repro lint --deep``).

The per-file lint rules (:mod:`repro.analysis.lint`) catch nondeterminism
where it is written; this package catches it where it is *reachable*.
It builds a project-wide symbol table (:mod:`.symbols`) and an
interprocedural call graph (:mod:`.callgraph`) over the parsed
:class:`~repro.analysis.lint.engine.ProjectModel`, then runs three
dataflow passes registered as deep project rules:

* **DEEP001** (:mod:`.taint`) — determinism taint: proves the transitive
  call graph of every signature/cache-key root (``mission_signature``,
  ``config_key``/``code_fingerprint``, ``canonical_payload``,
  ``config_to_dict``, ``report_signature``) free of wall-clock reads,
  unseeded RNG, environment reads, ``id()``/``hash()``, and
  order-sensitive iteration;
* **DEEP002** (:mod:`.races`) — fork/thread safety: flags writes to
  module-level mutable state from worker-reachable code that bypass the
  blessed ``_pool_initializer``/``register_transient_reset`` path, a
  lock, or the atomic ``setdefault`` memo idiom;
* **DEEP003** (:mod:`.protocol`) — protocol conformance: checks every
  token/grant send/recv sequence against the declared state machine
  (:data:`~.protocol.PROTOCOL_MACHINE`), the static groundwork for the
  backend-pluggable protocol refactor (ROADMAP item 5).

Findings flow through the same diagnostics and inline-waiver machinery
as the per-file rules and export to SARIF (:mod:`.sarif`) for CI
code-scanning upload.
"""

from repro.analysis.deepcheck.callgraph import CallEdge, CallGraph, build_call_graph
from repro.analysis.deepcheck.sarif import render_sarif
from repro.analysis.deepcheck.symbols import (
    ClassInfo,
    FunctionInfo,
    GlobalVar,
    SymbolTable,
    build_symbols,
    module_name,
)

# Importing the pass modules registers the DEEP project rules.
from repro.analysis.deepcheck import (  # noqa: E402  (registration side effect)
    protocol,  # noqa: F401
    races,  # noqa: F401
    taint,  # noqa: F401
)
from repro.analysis.deepcheck.protocol import PROTOCOL_MACHINE, check_sequence
from repro.analysis.deepcheck.races import WORKER_ENTRYPOINTS
from repro.analysis.deepcheck.taint import DEFAULT_TAINT_ROOTS

__all__ = [
    "CallEdge",
    "CallGraph",
    "ClassInfo",
    "DEFAULT_TAINT_ROOTS",
    "FunctionInfo",
    "GlobalVar",
    "PROTOCOL_MACHINE",
    "SymbolTable",
    "WORKER_ENTRYPOINTS",
    "build_call_graph",
    "build_symbols",
    "check_sequence",
    "module_name",
    "render_sarif",
]
