"""CFG rules: every config field must enter the sweep cache key.

The sweep cache addresses results by ``config_key`` — a digest of
``config_to_dict(config)``.  A :class:`CoSimConfig`/:class:`SyncConfig`
field that does not reach that dict makes two *different* configs hash
identically, so the cache serves stale results for whichever knob
escaped (exactly the PR 1 ``frames_per_sync`` and PR 3
fault-plan/invariant-flag class of bug).  This rule introspects the
dataclass definitions and the serializer and fails the build the moment
a new field is added without entering the key.
"""

from __future__ import annotations

import ast
import re

from repro.analysis.lint.diagnostics import Diagnostic
from repro.analysis.lint.engine import DataclassDef, Module, ProjectModel
from repro.analysis.lint.registry import rule

#: The top-level config dataclass and the serializer that feeds
#: config_key (sweep cache) and the golden-corpus config records.
CONFIG_CLASS = "CoSimConfig"
SERIALIZER = "config_to_dict"


def _string_keys(node: ast.Dict) -> set[str]:
    return {
        key.value
        for key in node.keys
        if isinstance(key, ast.Constant) and isinstance(key.value, str)
    }


def _nested_dataclass(annotation: str, project: ProjectModel) -> DataclassDef | None:
    """A known dataclass named inside a field's annotation text."""
    for word in re.findall(r"[A-Za-z_][A-Za-z0-9_]*", annotation):
        found = project.dataclasses.get(word)
        if found is not None:
            return found
    return None


@rule(
    "CFG001",
    "config serialization must cover every dataclass field",
    "config_to_dict feeds config_key, the sweep cache's address; a field "
    "missing from the serialized form means two different configs share a "
    "cache entry and sweeps silently reuse wrong results",
    paths=("repro/core/manifest.py",),
)
def cfg001_cache_key_coverage(module: Module, project: ProjectModel) -> list[Diagnostic]:
    out: list[Diagnostic] = []
    config = project.dataclasses.get(CONFIG_CLASS)
    serializer = next(
        (
            node
            for node in module.walk()
            if isinstance(node, ast.FunctionDef) and node.name == SERIALIZER
        ),
        None,
    )
    if serializer is None:
        if config is not None:
            out.append(
                Diagnostic(
                    path=module.path,
                    line=1,
                    rule="CFG001",
                    message=f"no {SERIALIZER}() found; {CONFIG_CLASS} fields have "
                    "no checkable path into the cache key",
                    hint=f"define {SERIALIZER}(config) in this module",
                )
            )
        return out

    # -- wholesale coverage of the top-level config ---------------------
    has_asdict = any(
        isinstance(node, ast.Call)
        and (module.call_name(node) or "").split(".")[-1] == "asdict"
        for node in ast.walk(serializer)
    )
    explicit_keys: set[str] = set()
    overrides: list[tuple[str, ast.Dict]] = []
    for node in ast.walk(serializer):
        if isinstance(node, ast.Dict):
            explicit_keys |= _string_keys(node)
            # A nested literal ({"sync": {...}}) lists a nested config's
            # keys just as an override assignment does.
            overrides.extend(
                (key.value, value)
                for key, value in zip(node.keys, node.values)
                if isinstance(key, ast.Constant)
                and isinstance(key.value, str)
                and isinstance(value, ast.Dict)
            )
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Subscript)
            and isinstance(node.targets[0].slice, ast.Constant)
            and isinstance(node.targets[0].slice.value, str)
        ):
            key = node.targets[0].slice.value
            explicit_keys.add(key)
            if isinstance(node.value, ast.Dict):
                overrides.append((key, node.value))

    if config is not None and not has_asdict:
        missing = [f for f in config.fields if f not in explicit_keys]
        if missing:
            out.append(
                Diagnostic(
                    path=module.path,
                    line=serializer.lineno,
                    rule="CFG001",
                    message=f"{SERIALIZER}() does not serialize {CONFIG_CLASS} "
                    f"field(s): {', '.join(missing)}",
                    hint="call dataclasses.asdict(config) for wholesale coverage, "
                    "or serialize every field explicitly",
                )
            )

    # -- hand-written nested dicts (data["sync"] = {...}, or a nested --
    # -- literal in the serialized dict) ---------------------------------
    # asdict() covers nested dataclasses too, but an explicit override
    # replaces that coverage with whatever keys it lists — so the listed
    # keys must be total over the nested dataclass's fields.
    if config is None:
        return out
    for key, literal in overrides:
        annotation = config.annotation_for(key)
        nested = _nested_dataclass(annotation, project)
        if nested is None:
            continue
        listed = _string_keys(literal)
        missing = [f for f in nested.fields if f not in listed]
        if missing:
            out.append(
                Diagnostic(
                    path=module.path,
                    line=literal.lineno,
                    col=literal.col_offset,
                    rule="CFG001",
                    message=f"the {key!r} dict misses {nested.name} "
                    f"field(s): {', '.join(missing)} — they never reach the "
                    "cache key",
                    hint=f"add the missing field(s) to the {key!r} dict so "
                    "config_key sees them",
                )
            )
    return out
