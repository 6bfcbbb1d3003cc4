"""The lint engine: parse a source tree, build a project model, run rules.

The engine scans every ``*.py`` under a *source root* (the directory that
contains the top-level package, e.g. ``src/``), so module paths are
repo-relative POSIX strings like ``repro/core/transport.py`` — the same
vocabulary rule scopes and diagnostics use.  Fixture
trees in tests reproduce that layout under a temp directory and get the
exact same behaviour.

Two passes:

1. **model** — parse all files, collect the cross-module facts rules
   introspect: enum definitions (member names), dataclass definitions
   (field names), and a function index;
2. **rules** — run every registered rule over every module in its scope,
   then mark each diagnostic ``waived`` when an inline
   ``# repro: allow[RULE]`` names its rule — the one suppression
   mechanism.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

from repro.analysis.lint.diagnostics import Diagnostic
from repro.analysis.lint.registry import Rule, all_rules, default_rules

#: Inline waiver: ``# repro: allow[DET002]`` or ``# repro: allow[DET002,NUM001]``
#: on the flagged line or the line directly above it.
_WAIVER_RE = re.compile(r"#\s*repro:\s*allow\[([A-Za-z0-9_,\s]+)\]")

_ENUM_BASES = {"Enum", "IntEnum", "IntFlag", "Flag", "StrEnum"}


@dataclass(frozen=True)
class EnumDef:
    """An enum class found in the tree: its members, in definition order."""

    name: str
    path: str
    line: int
    members: tuple[str, ...]


@dataclass(frozen=True)
class DataclassDef:
    """A ``@dataclass`` found in the tree: its field names, in order."""

    name: str
    path: str
    line: int
    fields: tuple[str, ...]
    #: Unparsed annotation text per field, parallel to ``fields``.
    field_types: tuple[str, ...] = ()

    def annotation_for(self, field_name: str) -> str:
        try:
            return self.field_types[self.fields.index(field_name)]
        except (ValueError, IndexError):
            return ""


class Module:
    """One parsed source file plus the lookup tables rules need."""

    def __init__(self, path: str, source: str, tree: ast.Module):
        self.path = path
        self.source = source
        self.lines = source.splitlines()
        self.tree = tree
        #: local name -> dotted origin ("np" -> "numpy",
        #: "perf_counter" -> "time.perf_counter", "time" -> "time").
        self.aliases: dict[str, str] = _import_aliases(tree)
        #: 1-based line -> set of waived rule ids.
        self.waivers: dict[int, set[str]] = _waivers(source, self.lines)
        #: Waiver lines that suppressed at least one diagnostic this run
        #: (fed by :meth:`is_waived`; unconsumed lines become WAIVE001).
        self.consumed_waivers: set[int] = set()

    def dotted(self, node: ast.AST) -> str | None:
        """Dotted name of an expression, resolved through import aliases.

        ``np.random.seed`` with ``import numpy as np`` resolves to
        ``numpy.random.seed``; returns ``None`` for non-name expressions
        (calls, subscripts, ...).
        """
        parts: list[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        base = self.aliases.get(node.id, node.id)
        parts.append(base)
        return ".".join(reversed(parts))

    def call_name(self, node: ast.Call) -> str | None:
        """Dotted name of a call's target (``None`` if not a plain name)."""
        return self.dotted(node.func)

    def walk(self) -> Iterator[ast.AST]:
        return ast.walk(self.tree)

    def is_waived(self, rule_id: str, line: int) -> bool:
        """Inline waiver on ``line`` or the line directly above it.

        A match marks the waiver line *consumed*: waivers that finish a
        run unconsumed no longer suppress anything and are reported as
        stale (WAIVE001) when the engine runs with waiver checking on.
        """
        for at in (line, line - 1):
            rules = self.waivers.get(at)
            if rules and rule_id in rules:
                self.consumed_waivers.add(at)
                return True
        return False


def _import_aliases(tree: ast.Module) -> dict[str, str]:
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for name in node.names:
                aliases[name.asname or name.name.split(".")[0]] = (
                    name.name if name.asname else name.name.split(".")[0]
                )
                if name.asname:
                    aliases[name.asname] = name.name
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for name in node.names:
                if name.name == "*":
                    continue
                aliases[name.asname or name.name] = f"{node.module}.{name.name}"
    return aliases


def _waivers(source: str, lines: list[str]) -> dict[int, set[str]]:
    """Collect inline waivers, keyed by 1-based line number.

    Only real ``#`` comment tokens count, and the waiver must *start*
    the comment — a waiver quoted inside a docstring, a hint string, or
    the prose of another comment (this very module documents the syntax)
    is documentation, not a suppression, and must not trip WAIVE001.
    """
    waivers: dict[int, set[str]] = {}

    def record(line: int, text: str) -> None:
        match = _WAIVER_RE.match(text)
        if match:
            rules = {part.strip() for part in match.group(1).split(",") if part.strip()}
            if rules:
                waivers[line] = rules

    try:
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            if tok.type == tokenize.COMMENT:
                record(tok.start[0], tok.string)
    except (tokenize.TokenError, IndentationError, SyntaxError):
        # Unparsable tail (the file still ast-parsed, so this is rare):
        # fall back to a per-line scan of comment-looking text.
        for index, text in enumerate(lines, start=1):
            stripped = text.lstrip()
            if stripped.startswith("#"):
                record(index, stripped)
    return waivers


class ProjectModel:
    """Cross-module facts: enums, dataclasses, a function index."""

    def __init__(self, modules: list[Module]):
        self.modules = modules
        self.by_path: dict[str, Module] = {m.path: m for m in modules}
        self.enums: dict[str, EnumDef] = {}
        self.dataclasses: dict[str, DataclassDef] = {}
        #: function name -> [(module, node)] in path order.
        self.functions: dict[str, list[tuple[Module, ast.FunctionDef]]] = {}
        for module in modules:
            self._index(module)

    def _index(self, module: Module) -> None:
        for node in module.walk():
            if isinstance(node, ast.ClassDef):
                if _is_enum(node, module):
                    self.enums.setdefault(
                        node.name,
                        EnumDef(
                            name=node.name,
                            path=module.path,
                            line=node.lineno,
                            members=_enum_members(node),
                        ),
                    )
                elif _is_dataclass(node, module):
                    names, types = _dataclass_fields(node)
                    self.dataclasses.setdefault(
                        node.name,
                        DataclassDef(
                            name=node.name,
                            path=module.path,
                            line=node.lineno,
                            fields=names,
                            field_types=types,
                        ),
                    )
            elif isinstance(node, ast.FunctionDef):
                self.functions.setdefault(node.name, []).append((module, node))


def _is_enum(node: ast.ClassDef, module: Module) -> bool:
    for base in node.bases:
        dotted = module.dotted(base)
        if dotted and dotted.split(".")[-1] in _ENUM_BASES:
            return True
    return False


def _enum_members(node: ast.ClassDef) -> tuple[str, ...]:
    members: list[str] = []
    for stmt in node.body:
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name) and not target.id.startswith("_"):
                    members.append(target.id)
    return tuple(members)


def _is_dataclass(node: ast.ClassDef, module: Module) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        dotted = module.dotted(target)
        if dotted and dotted.split(".")[-1] == "dataclass":
            return True
    return False


def _dataclass_fields(node: ast.ClassDef) -> tuple[tuple[str, ...], tuple[str, ...]]:
    names: list[str] = []
    types: list[str] = []
    for stmt in node.body:
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            if not stmt.target.id.startswith("_") and not _is_classvar(stmt):
                names.append(stmt.target.id)
                types.append(ast.unparse(stmt.annotation))
    return tuple(names), tuple(types)


def _is_classvar(stmt: ast.AnnAssign) -> bool:
    annotation = stmt.annotation
    if isinstance(annotation, ast.Subscript):
        annotation = annotation.value
    return isinstance(annotation, ast.Name) and annotation.id == "ClassVar" or (
        isinstance(annotation, ast.Attribute) and annotation.attr == "ClassVar"
    )


@dataclass
class LintReport:
    """Everything one engine run produced."""

    root: str
    diagnostics: list[Diagnostic] = field(default_factory=list)
    files_scanned: int = 0
    parse_errors: list[str] = field(default_factory=list)

    @property
    def active(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.active]

    @property
    def ok(self) -> bool:
        return not self.active and not self.parse_errors

    def describe(self) -> str:
        parts = [
            f"{self.files_scanned} file(s) scanned, "
            f"{len(self.diagnostics)} finding(s): "
            f"{len(self.active)} active, "
            f"{sum(1 for d in self.diagnostics if d.waived)} waived"
        ]
        if self.parse_errors:
            parts.append(f"{len(self.parse_errors)} unparsable file(s)")
        return "; ".join(parts)


class LintEngine:
    """Run the registered rules over one source tree.

    ``deep=True`` adds the registered whole-program project rules (the
    deepcheck passes) to the default per-module set; an explicit
    ``rules`` list is always used as-is.  ``check_waivers=True`` turns
    inline waivers that suppressed nothing into WAIVE001 findings.  A
    waiver is judged only when every registered rule it names ran in
    this invocation, so any rule subset (``--rule``, the non-deep
    default) gives a sound verdict; a waiver naming an unknown rule id
    is always judged, and always stale.
    """

    def __init__(
        self,
        root: str | Path,
        rules: Iterable[Rule] | None = None,
        deep: bool = False,
        check_waivers: bool = False,
    ):
        self.root = Path(root)
        if rules is not None:
            self.rules = list(rules)
        elif deep:
            self.rules = list(all_rules().values())
        else:
            self.rules = list(default_rules().values())
        self.check_waivers = check_waivers

    # ------------------------------------------------------------------
    def load(self) -> tuple[ProjectModel, list[str]]:
        """Parse the tree; returns the model plus parse-error strings."""
        modules: list[Module] = []
        errors: list[str] = []
        for path in sorted(self.root.rglob("*.py")):
            rel = path.relative_to(self.root).as_posix()
            source = path.read_text(encoding="utf-8")
            try:
                tree = ast.parse(source, filename=rel)
            except SyntaxError as exc:
                errors.append(f"{rel}:{exc.lineno or 0}: syntax error: {exc.msg}")
                continue
            modules.append(Module(path=rel, source=source, tree=tree))
        return ProjectModel(modules), errors

    def run(self) -> LintReport:
        """Parse, run every rule, apply inline waivers.

        Module rules run per file, project rules once over the whole
        model; both funnel through the same waiver suppression.
        Diagnostics are sorted by ``(path, line, rule, ...)`` so output
        is stable across filesystem walk order.
        """
        project, errors = self.load()
        report = LintReport(
            root=str(self.root),
            files_scanned=len(project.modules),
            parse_errors=errors,
        )
        for module in project.modules:
            for rule in self.rules:
                if rule.func is None or not rule.applies_to(module.path):
                    continue
                for diag in rule.check(module, project):
                    report.diagnostics.append(self._suppress(diag, project))
        for rule in self.rules:
            if rule.project_func is None:
                continue
            for diag in rule.check_project(project):
                report.diagnostics.append(self._suppress(diag, project))
        if self.check_waivers:
            # Stale-waiver findings are never suppressed: a waiver that
            # waived its own staleness would never rot.
            ran = {rule.id for rule in self.rules} | {WAIVE001}
            report.diagnostics.extend(_stale_waivers(project, ran))
        report.diagnostics.sort()
        return report

    def _suppress(self, diag: Diagnostic, project: ProjectModel) -> Diagnostic:
        """Apply inline-waiver state to one finding."""
        module = project.by_path.get(diag.path)
        waived = module.is_waived(diag.rule, diag.line) if module is not None else False
        return diag.suppressed(waived=waived)


#: Stale-waiver rule id (implemented by the engine, not a rule function,
#: because consumption is only known after every other rule has run).
WAIVE001 = "WAIVE001"


def _stale_waivers(project: ProjectModel, ran: set[str]) -> Iterator[Diagnostic]:
    """WAIVE001 findings: inline waivers that suppressed nothing.

    A waiver naming a registered rule outside ``ran`` is not judged —
    its rule never had the chance to consume it.
    """
    skipped = set(all_rules()) - ran
    for module in project.modules:
        for line in sorted(set(module.waivers) - module.consumed_waivers):
            if module.waivers[line] & skipped:
                continue
            rules = ",".join(sorted(module.waivers[line]))
            yield Diagnostic(
                path=module.path,
                line=line,
                rule=WAIVE001,
                message=f"stale waiver allow[{rules}] suppresses no finding",
                hint="delete the '# repro: allow[...]' comment (the code it "
                "excused has moved or been fixed)",
            )
