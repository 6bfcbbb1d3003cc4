"""RES rules: resilience discipline in the sweep engine.

The supervised sweep loop promises two things the type system cannot
check: every retry loop terminates (a poison task is quarantined, never
spun on forever), and every wait is policy-shaped (deterministic,
bounded backoff from :mod:`repro.sweep.resilience` — not an ad-hoc
``time.sleep`` sprinkled where a hang was once observed).  RES001 pins
the first promise here; RES002, a single banned call, is a row of the
call-ban table in :mod:`.bans`.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.lint.diagnostics import Diagnostic
from repro.analysis.lint.engine import Module, ProjectModel
from repro.analysis.lint.registry import rule


def _own_statements(loop: ast.While) -> Iterator[ast.stmt]:
    """Statements whose ``break``/``raise`` would exit *this* loop.

    Walks the loop body without descending into nested loops (their
    ``break`` exits the inner loop) or nested function definitions
    (their statements execute elsewhere).
    """
    stack: list[ast.stmt] = list(loop.body)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(
            node,
            (ast.While, ast.For, ast.AsyncFor, ast.FunctionDef, ast.AsyncFunctionDef),
        ):
            continue
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.stmt):
                stack.append(child)
            elif isinstance(child, (ast.ExceptHandler, ast.match_case)):
                stack.extend(
                    grand
                    for grand in ast.iter_child_nodes(child)
                    if isinstance(grand, ast.stmt)
                )


def _is_unconditional(test: ast.expr) -> bool:
    """``while True:`` / ``while 1:`` — loops bounded only by their body."""
    return isinstance(test, ast.Constant) and bool(test.value)


@rule(
    "RES001",
    "retry loops must be bounded",
    "an unconditionally-true loop with no exit of its own retries forever: "
    "a poison task then wedges the sweep instead of being quarantined. "
    "Bound the loop on the RetryPolicy budget (while policy.allows_retry(...)"
    " / while queue or inflight) or give it an explicit break/return/raise",
    paths=("repro/sweep/",),
)
def res001_unbounded_loop(module: Module, project: ProjectModel) -> list[Diagnostic]:
    out: list[Diagnostic] = []
    for node in module.walk():
        if not isinstance(node, ast.While) or not _is_unconditional(node.test):
            continue
        has_exit = any(
            isinstance(stmt, (ast.Break, ast.Return, ast.Raise))
            for stmt in _own_statements(node)
        )
        if not has_exit:
            out.append(
                Diagnostic(
                    path=module.path,
                    line=node.lineno,
                    col=node.col_offset,
                    rule="RES001",
                    message="unbounded retry loop: while-True with no break, "
                    "return, or raise of its own",
                    hint="bound the loop on the RetryPolicy attempt budget "
                    "(repro.sweep.resilience) so poison tasks quarantine "
                    "instead of spinning forever",
                )
            )
    return out
