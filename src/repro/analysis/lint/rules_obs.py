"""OBS rules: the metric catalog is single-sourced.

Every metric the observability layer records is declared once, in
:mod:`repro.obs.declarations` — the registry rejects undeclared names at
runtime, but only on paths a test actually drives.  This rule moves the
check to review time: a ``rose_``-prefixed metric name used anywhere in
the tree must exist in the declarations catalog, and :class:`MetricSpec`
itself may only be constructed there (a row of the call-ban table in
:mod:`.bans`).  That keeps the catalog the single place to audit bucket
edges, label sets, and coverage exemptions.
"""

from __future__ import annotations

import ast

from repro.analysis.lint.bans import DECLARATIONS_PATH, ban_scope, banned_calls
from repro.analysis.lint.diagnostics import Diagnostic
from repro.analysis.lint.engine import Module, ProjectModel
from repro.analysis.lint.registry import rule

#: Registry methods whose first positional argument is a metric name.
_RECORD_ATTRS = {"inc", "set", "observe", "value", "total", "advance_to", "series_count"}

#: Project metric names all share this prefix (Prometheus-style).
_METRIC_PREFIX = "rose_"


def _spec_name_arg(node: ast.Call) -> ast.expr | None:
    """The ``name`` argument of a ``MetricSpec(...)`` call, if literal."""
    if node.args:
        return node.args[0]
    for keyword in node.keywords:
        if keyword.arg == "name":
            return keyword.value
    return None


def _declared_names(project: ProjectModel) -> set[str] | None:
    """Metric names declared in the catalog module (``None`` if absent).

    Fixture trees without a declarations module skip the undeclared-name
    half of the rule rather than flagging every metric in sight.
    """
    module = project.by_path.get(DECLARATIONS_PATH)
    if module is None:
        return None
    names: set[str] = set()
    for node in module.walk():
        if not isinstance(node, ast.Call):
            continue
        callee = module.call_name(node)
        if callee is None or callee.split(".")[-1] != "MetricSpec":
            continue
        arg = _spec_name_arg(node)
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            names.add(arg.value)
    return names


@rule(
    "OBS001",
    "metric names and MetricSpec declarations live in repro.obs.declarations",
    "a metric name recorded against the registry but missing from the "
    "declarations catalog raises ConfigError at runtime on whichever path "
    "first records it, and a MetricSpec constructed elsewhere splits the "
    "catalog into places no audit will find",
    **ban_scope("OBS001"),
)
def obs001_declared_metrics(module: Module, project: ProjectModel) -> list[Diagnostic]:
    # MetricSpec outside the catalog is a call-ban table row; this
    # visitor adds the undeclared-name half.
    out = banned_calls(module, "OBS001")
    declared = _declared_names(project)
    if declared is None:
        return out
    for node in module.walk():
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _RECORD_ATTRS
            and node.args
        ):
            continue
        first = node.args[0]
        if not (
            isinstance(first, ast.Constant)
            and isinstance(first.value, str)
            and first.value.startswith(_METRIC_PREFIX)
        ):
            continue
        if first.value not in declared:
            out.append(
                Diagnostic(
                    path=module.path,
                    line=node.lineno,
                    col=node.col_offset,
                    rule="OBS001",
                    message=f"metric {first.value!r} is not declared in the "
                    "catalog",
                    hint=f"add a MetricSpec for it to {DECLARATIONS_PATH} "
                    "(or fix the name)",
                )
            )
    return out
