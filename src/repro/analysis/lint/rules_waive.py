"""WAIVE rules: the suppression surface itself must not rot.

An inline ``# repro: allow[RULE]`` is a standing claim that the flagged
code is intentional.  When the code moves or gets fixed, the comment
outlives the finding and silently pre-excuses the *next* violation that
lands on that line.  WAIVE001 closes the loop: a waiver that suppressed
nothing, although every rule it names ran, is itself a finding — and
one no waiver can excuse.

The detection lives in the engine (``check_waivers=True`` /
``lint --check-waivers``) because staleness is only known after every
other rule has run and consumed its waivers; this module registers the
rule's identity and catalog entry.
"""

from __future__ import annotations

from repro.analysis.lint.diagnostics import Diagnostic
from repro.analysis.lint.engine import ProjectModel
from repro.analysis.lint.registry import project_rule


@project_rule(
    "WAIVE001",
    "no stale inline waivers",
    "a '# repro: allow[...]' comment that no longer suppresses any "
    "diagnostic silently pre-excuses the next violation on its line; "
    "delete waivers when the code they excused is gone",
    deep=False,
)
def waive001_stale_waivers(project: ProjectModel) -> list[Diagnostic]:
    # Implemented by the engine (see engine._stale_waivers): staleness is
    # a property of the whole run, not of the project model alone.
    return []
