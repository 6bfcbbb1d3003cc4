"""Static analysis for co-simulation reproducibility (``python -m repro lint``).

The whole evaluation methodology rests on deterministic, bit-reproducible
co-simulation: the sweep cache (PR 2) and the golden-trace corpus (PR 3)
are only sound because identical configs simulate identically.  Runtime
machinery (invariants, oracles, golden replays) catches divergence after
the fact; this package catches the *sources* of divergence at review
time, before a golden re-record or a poisoned cache entry ever happens.

Rule families (see the modules for the catalog):

* **DET** — determinism: unseeded or OS-entropy RNG and wall-clock reads
  on simulation paths (DET001/DET002, call-ban table rows in
  :mod:`.bans`), unordered iteration feeding digests (:mod:`.rules_det`);
* **NUM** (:mod:`.rules_num`) — numeric reproducibility: float
  reassociation via builtin ``sum()``, dtype-less ``np.array`` in
  kernels;
* **PROTO** (:mod:`.rules_proto`) — protocol totality: packet-type
  dispatch maps that silently miss enum members, swallowed exceptions in
  transport/synchronizer code;
* **CFG** (:mod:`.rules_cfg`) — cache-key soundness: every config
  dataclass field must enter the sweep cache key;
* **OBS** (:mod:`.rules_obs`) — observability: metric names and
  :class:`MetricSpec` declarations single-sourced in
  :mod:`repro.obs.declarations`;
* **RES** — resilience: retry loops in the sweep engine must be bounded
  (:mod:`.rules_res`), and every sweep-side wait must route through the
  shared backoff helper in :mod:`repro.sweep.resilience` (RES002, a
  :mod:`.bans` row);
* **SRV** (:mod:`.bans`) — serve determinism: the sweep service reads
  time only through the injected :class:`~repro.serve.clock.Clock` seam,
  keeping the end-to-end service harness fake-clock drivable.

Every rule of the form "call C is banned under path P except in module
M" is a row of the one call-ban table in :mod:`.bans`, which the
DEEP001 taint pass reads too.

Diagnostics are suppressed either inline (``# repro: allow[RULE]`` on
the flagged line or the line above) or through a committed baseline file
(``lint-baseline.json`` at the repository root) for intentional,
documented leftovers.
"""

from repro.analysis.lint.baseline import Baseline, baseline_path_for
from repro.analysis.lint.diagnostics import Diagnostic, render_json, render_text
from repro.analysis.lint.engine import LintEngine, LintReport, Module, ProjectModel
from repro.analysis.lint.registry import (
    Rule,
    all_rules,
    default_rules,
    get_rule,
    project_rule,
    rule,
)

# Importing the rule modules registers every shipped rule.  The deepcheck
# package registers the whole-program DEEP rules the same way.
from repro.analysis.lint import (  # noqa: E402  (registration side effect)
    bans,  # noqa: F401
    rules_cfg,  # noqa: F401
    rules_det,  # noqa: F401
    rules_num,  # noqa: F401
    rules_obs,  # noqa: F401
    rules_proto,  # noqa: F401
    rules_res,  # noqa: F401
    rules_waive,  # noqa: F401
)
from repro.analysis import deepcheck  # noqa: E402,F401  (registers DEEP rules)

__all__ = [
    "Baseline",
    "Diagnostic",
    "LintEngine",
    "LintReport",
    "Module",
    "ProjectModel",
    "Rule",
    "all_rules",
    "baseline_path_for",
    "default_rules",
    "get_rule",
    "project_rule",
    "render_json",
    "render_text",
    "rule",
]
