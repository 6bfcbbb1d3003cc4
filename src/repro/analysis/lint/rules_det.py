"""DET rules: sources of run-to-run nondeterminism.

The sweep cache and the golden corpus assume that a config simulates
identically on every run and on every host.  Three things silently break
that: global-state RNG (seeded by nobody, or seeded twice), wall-clock
reads on simulation paths (results then depend on host speed), and
iteration order that is not defined by the data (set iteration varies
across processes under string-hash randomization — exactly the boundary
the parallel sweep engine crosses).

DET001 (global RNG) and DET002 (wall clock) ban single calls, so they
are rows of the call-ban table in :mod:`.bans`; this module holds the
iteration-order rules.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.lint.diagnostics import Diagnostic
from repro.analysis.lint.engine import Module, ProjectModel
from repro.analysis.lint.registry import rule

#: Files whose output feeds hashes/signatures/cache keys (DET004 scope).
_DIGEST_FILES = (
    "repro/sweep/signature.py",
    "repro/sweep/fingerprint.py",
    "repro/core/manifest.py",
    "repro/verify/golden.py",
)


def _iterables(tree: ast.AST) -> Iterator[ast.expr]:
    """Every expression something iterates over (for loops, comprehensions)."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.For, ast.AsyncFor)):
            yield node.iter
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            for generator in node.generators:
                yield generator.iter


@rule(
    "DET003",
    "no iteration over sets",
    "set iteration order depends on insertion history and, for strings, on "
    "per-process hash randomization — results computed from it differ "
    "between the serial and multiprocess sweep paths",
)
def det003_set_iteration(module: Module, project: ProjectModel) -> list[Diagnostic]:
    out: list[Diagnostic] = []
    for iterable in _iterables(module.tree):
        is_set_literal = isinstance(iterable, ast.Set)
        is_set_call = (
            isinstance(iterable, ast.Call)
            and module.call_name(iterable) in ("set", "frozenset")
        )
        if is_set_literal or is_set_call:
            out.append(
                Diagnostic(
                    path=module.path,
                    line=iterable.lineno,
                    col=iterable.col_offset,
                    rule="DET003",
                    message="iteration over a set — order is not data-defined",
                    hint="wrap in sorted(...) or iterate the original sequence",
                )
            )
    return out


@rule(
    "DET004",
    "digest code must serialize in sorted order",
    "files feeding hashes, signatures, and cache keys must not depend on "
    "dict insertion order: an unsorted json.dumps or a raw .items() loop "
    "next to a hashlib update changes the digest when construction order "
    "changes, silently splitting or poisoning the cache",
    paths=_DIGEST_FILES,
)
def det004_unsorted_digest(module: Module, project: ProjectModel) -> list[Diagnostic]:
    out: list[Diagnostic] = []
    for node in module.walk():
        if isinstance(node, ast.Call) and module.call_name(node) in (
            "json.dumps",
            "json.dump",
        ):
            sort_keys = any(
                kw.arg == "sort_keys"
                and isinstance(kw.value, ast.Constant)
                and kw.value.value is True
                for kw in node.keywords
            )
            if not sort_keys:
                out.append(
                    Diagnostic(
                        path=module.path,
                        line=node.lineno,
                        col=node.col_offset,
                        rule="DET004",
                        message="json serialization without sort_keys=True in "
                        "digest-scoped code",
                        hint="pass sort_keys=True so the digest is independent "
                        "of dict construction order",
                    )
                )
    # Raw dict-view iteration inside functions that hash.
    for func in ast.walk(module.tree):
        if not isinstance(func, ast.FunctionDef):
            continue
        hashes = any(
            isinstance(n, ast.Call)
            and (module.call_name(n) or "").startswith("hashlib.")
            for n in ast.walk(func)
        )
        if not hashes:
            continue
        for iterable in _iterables(func):
            if (
                isinstance(iterable, ast.Call)
                and isinstance(iterable.func, ast.Attribute)
                and iterable.func.attr in ("items", "keys", "values")
            ):
                out.append(
                    Diagnostic(
                        path=module.path,
                        line=iterable.lineno,
                        col=iterable.col_offset,
                        rule="DET004",
                        message=f"unsorted .{iterable.func.attr}() iteration in a "
                        "hashing function",
                        hint="iterate sorted(....items()) so the digest is "
                        "order-independent",
                    )
                )
    return out
