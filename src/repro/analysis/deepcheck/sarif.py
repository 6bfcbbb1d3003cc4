"""SARIF 2.1.0 export for lint/deepcheck reports.

SARIF is the interchange format CI code-scanning UIs ingest; emitting it
lets the ``deepcheck`` CI job upload one artifact that renders findings
inline on changed lines.  The export is deterministic — diagnostics are
sorted, JSON keys are sorted — so the artifact diffs cleanly between
runs, the same stability contract the text/JSON renderers keep.

Waived findings are carried as SARIF ``suppressions`` (kind
``inSource``: the inline waiver is the only suppression mechanism)
rather than dropped, mirroring :class:`~.diagnostics.Diagnostic`'s
everything-visible philosophy.
"""

from __future__ import annotations

import json
from typing import Any

from repro.analysis.lint.diagnostics import Diagnostic
from repro.analysis.lint.registry import all_rules

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)
TOOL_NAME = "repro-lint"


def _rule_descriptor(rule_id: str) -> dict[str, Any]:
    rule = all_rules().get(rule_id)
    if rule is None:
        return {"id": rule_id}
    return {
        "id": rule.id,
        "name": rule.title,
        "shortDescription": {"text": rule.title},
        "fullDescription": {"text": rule.rationale},
    }


def _result(diag: Diagnostic) -> dict[str, Any]:
    result: dict[str, Any] = {
        "ruleId": diag.rule,
        "level": "error" if diag.active else "note",
        "message": {"text": diag.message},
        "locations": [
            {
                "physicalLocation": {
                    "artifactLocation": {"uri": diag.path},
                    "region": {
                        "startLine": diag.line,
                        "startColumn": diag.col + 1,  # SARIF is 1-based
                    },
                }
            }
        ],
    }
    if diag.waived:
        result["suppressions"] = [
            {"kind": "inSource", "justification": "inline '# repro: allow' waiver"}
        ]
    if diag.hint:
        result["message"]["markdown"] = f"{diag.message}\n\n**Fix:** {diag.hint}"
    return result


def render_sarif(diagnostics: list[Diagnostic]) -> str:
    """A complete, deterministic SARIF 2.1.0 log for one engine run."""
    ordered = sorted(diagnostics)
    rule_ids = sorted({d.rule for d in ordered})
    log = {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": TOOL_NAME,
                        "informationUri": "https://github.com/ucb-bar/RoSE",
                        "rules": [_rule_descriptor(r) for r in rule_ids],
                    }
                },
                "results": [_result(d) for d in ordered],
                "columnKind": "utf16CodeUnits",
            }
        ],
    }
    return json.dumps(log, indent=2, sort_keys=True)
