"""Diagnostic records and their text/JSON renderings.

A :class:`Diagnostic` is one finding: rule id, file, line, message, and
a fix hint.  Suppression state (``waived`` by an inline
``# repro: allow[RULE]`` comment) is recorded on the diagnostic rather
than by dropping it, so reports can show *everything* the analyzer saw
while exit codes consider only active findings.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Any


@dataclass(frozen=True, order=True)
class Diagnostic:
    """One static-analysis finding, addressable down to the line."""

    path: str  # repo-relative POSIX path
    line: int  # 1-based
    rule: str  # e.g. "DET002"
    message: str
    hint: str = ""  # how to fix (or how to waive when intentional)
    col: int = 0  # 0-based, best effort
    waived: bool = field(default=False, compare=False)

    @property
    def active(self) -> bool:
        """True when the finding counts toward a failing exit code."""
        return not self.waived

    @property
    def location(self) -> str:
        return f"{self.path}:{self.line}"

    def suppressed(self, *, waived: bool = False) -> "Diagnostic":
        """A copy with the waiver flag OR-ed in."""
        return replace(self, waived=self.waived or waived)

    def as_dict(self) -> dict[str, Any]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "hint": self.hint,
            "waived": self.waived,
        }


def render_text(diagnostics: list[Diagnostic], *, show_suppressed: bool = False) -> str:
    """One line per finding: ``path:line: RULE message  [hint: ...]``."""
    lines = []
    for diag in sorted(diagnostics):
        if not diag.active and not show_suppressed:
            continue
        suffix = "  (waived)" if diag.waived else ""
        hint = f"  [hint: {diag.hint}]" if diag.hint and diag.active else ""
        lines.append(f"{diag.location}: {diag.rule} {diag.message}{hint}{suffix}")
    return "\n".join(lines)


def render_json(diagnostics: list[Diagnostic]) -> str:
    """Machine-readable report (all findings, suppressed ones flagged)."""
    active = [d for d in diagnostics if d.active]
    payload = {
        "format": "rose-lint-report/1",
        "summary": {
            "total": len(diagnostics),
            "active": len(active),
            "waived": sum(1 for d in diagnostics if d.waived),
        },
        "diagnostics": [d.as_dict() for d in sorted(diagnostics)],
    }
    return json.dumps(payload, indent=2, sort_keys=True)
