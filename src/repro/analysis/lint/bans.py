"""The call-ban table: "call C is banned under path P except in module M".

The sweep cache and the golden corpus assume that a config simulates
identically on every run and on every host; the fuzzer and the sweep
service make the same promise for corpora and fake-clock runs.  Most of
what breaks those promises is a single call in the wrong place — a draw
from the process-global RNG, a wall-clock read, a bare sleep — so the
rules that guard them are rows of one declarative table
(:data:`CALL_BANS`) read by one visitor (:func:`banned_calls`):

* **DET001** — unseeded RNG anywhere: the process-global ``random.*`` /
  ``numpy.random.*`` streams, generators seeded from OS entropy, and
  global seeding outside the sweep's per-task seeding site;
* **DET002** — wall-clock reads on simulation paths;
* **RES002** — bare ``time.sleep`` in the sweep engine (every wait goes
  through :mod:`repro.sweep.resilience`);
* **SRV001** — host time in the serve layer (reads and waits go through
  the injected :class:`~repro.serve.clock.Clock`);
* **OBS001**, its MetricSpec half — :class:`MetricSpec` constructed
  outside :mod:`repro.obs.declarations` (:mod:`.rules_obs` adds the
  undeclared-name check).

DEEP001 (:mod:`repro.analysis.deepcheck.taint`) reads the DET001 and
DET002 rows too, without their path scopes or blessed modules, so the
per-file rules and the signature-slice taint pass judge every RNG and
wall-clock call alike.

Matching: for each rule, the first row (in table order) that names a
call decides it, so a blessed seeding site is not re-flagged by the
broader global-stream row below it.  A row names a call by exact dotted
name (an undotted entry such as ``"MetricSpec"`` names that class under
any import spelling), by prefix, or as a seeded constructor.  A seeded
constructor is allowed only when called with an argument: with none it
seeds itself from OS entropy.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterable

from repro.analysis.lint.diagnostics import Diagnostic
from repro.analysis.lint.engine import Module
from repro.analysis.lint.registry import RuleFunc, _matches, rule

#: The one module allowed to construct MetricSpec / declare metric names.
DECLARATIONS_PATH = "repro/obs/declarations.py"

#: Wall-clock reads: anything here makes simulated behaviour (or data
#: feeding signatures) depend on host time.
WALL_CLOCK = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.process_time",
        "time.process_time_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)


@dataclass(frozen=True)
class CallBan:
    """One row: calls ``rule`` bans under ``paths`` except in ``blessed``."""

    rule: str
    #: The finding, with ``{call}`` for the dotted call name; DEEP001
    #: reports it as is, the lint rule appends ``where``.
    hazard: str
    hint: str
    names: frozenset[str] = frozenset()
    prefixes: tuple[str, ...] = ()
    #: Constructors allowed when given a seed (banned with no argument).
    seeded: frozenset[str] = frozenset()
    paths: tuple[str, ...] = ()  # () = entire tree
    blessed: tuple[str, ...] = ()
    where: str = ""

    def covers(self, path: str) -> bool:
        return not self.paths or any(_matches(path, prefix) for prefix in self.paths)

    def names_call(self, name: str) -> bool:
        return (
            name in self.names
            or name.rpartition(".")[2] in self.names
            or name in self.seeded
            or name.startswith(self.prefixes)
        )

    def message(self, name: str) -> str:
        text = self.hazard.format(call=name)
        return f"{text} {self.where}" if self.where else text


CALL_BANS: tuple[CallBan, ...] = (
    CallBan(
        rule="DET001",
        names=frozenset({"random.seed", "numpy.random.seed", "numpy.random.set_state"}),
        # Worker seeding at the sweep fan-out boundary: every task
        # re-seeds from its config hash before running.
        blessed=("repro/sweep/runner.py",),
        hazard="global RNG seeding via {call}()",
        where="outside the blessed seeding sites",
        hint="seed instance RNGs from the config instead; global seeding "
        "belongs only in repro/sweep/runner.py's per-task setup",
    ),
    CallBan(
        rule="DET001",
        prefixes=("random.", "numpy.random."),
        seeded=frozenset(
            {
                "random.Random",
                "numpy.random.default_rng",
                "numpy.random.Generator",
                "numpy.random.BitGenerator",
                "numpy.random.SeedSequence",
                "numpy.random.PCG64",
                "numpy.random.PCG64DXSM",
                "numpy.random.MT19937",
                "numpy.random.Philox",
                "numpy.random.SFC64",
            }
        ),
        hazard="unseeded RNG call {call}()",
        hint="draw from a seeded random.Random(seed) or "
        "np.random.default_rng(seed) instance owned by the component (the "
        "fuzzer passes its campaign's generator down)",
    ),
    CallBan(
        rule="DET002",
        names=WALL_CLOCK,
        paths=("repro/core/", "repro/env/", "repro/soc/"),
        blessed=("repro/core/timing.py",),  # the StageTimer wraps the clock
        hazard="wall-clock read {call}()",
        where="on a simulation path",
        hint="use sim time or route through StageTimer "
        "(repro/core/timing.py); observational uses (watchdog and I/O "
        "deadlines, stage accounting) are waived inline with a reason",
    ),
    CallBan(
        rule="RES002",
        names=frozenset({"time.sleep"}),
        paths=("repro/sweep/",),
        # backoff_sleep (retry backoff) and wait_for (supervisor parking):
        # the sweep's single auditable wait site.
        blessed=("repro/sweep/resilience.py",),
        hazard="bare {call}()",
        where="in the sweep engine",
        hint="use repro.sweep.resilience.backoff_sleep(policy, key, attempt) "
        "between retries, or wait_for(seconds) for supervisor-computed waits",
    ),
    CallBan(
        rule="SRV001",
        names=WALL_CLOCK | {"time.sleep"},
        paths=("repro/serve/",),
        blessed=("repro/serve/clock.py",),  # SystemClock wraps the real clock
        hazard="host-time call {call}()",
        where="in the serve layer",
        hint="accept a repro.serve.clock.Clock at construction and use "
        "clock.now() / clock.sleep(); only SystemClock (in "
        "repro/serve/clock.py) may touch host time",
    ),
    CallBan(
        rule="OBS001",
        names=frozenset({"MetricSpec"}),
        paths=("repro/",),
        blessed=(DECLARATIONS_PATH,),
        hazard="MetricSpec constructed",
        where="outside the declarations catalog",
        hint=f"declare the metric in {DECLARATIONS_PATH} and record against "
        "it by name",
    ),
)


def rows_for(rule_id: str) -> list[CallBan]:
    return [row for row in CALL_BANS if row.rule == rule_id]


def first_ban(
    rows: Iterable[CallBan], name: str, call: ast.Call, path: str | None = None
) -> CallBan | None:
    """The row that bans ``call`` (dotted ``name``), or ``None``.

    The first row naming the call decides.  It allows the call in its
    blessed modules (unless ``path`` is ``None``: DEEP001 has no blessed
    sites) and a seeded constructor given an argument; it bans anything
    else it names.
    """
    row = next((r for r in rows if r.names_call(name)), None)
    if row is None:
        return None
    if path is not None and any(_matches(path, site) for site in row.blessed):
        return None
    if name in row.seeded and (call.args or call.keywords):
        return None
    return row


def banned_calls(module: Module, rule_id: str) -> list[Diagnostic]:
    """The table's one visitor: ``rule_id``'s banned calls in ``module``."""
    rows = [row for row in rows_for(rule_id) if row.covers(module.path)]
    out: list[Diagnostic] = []
    if not rows:
        return out
    for node in module.walk():
        if not isinstance(node, ast.Call):
            continue
        name = module.call_name(node)
        row = first_ban(rows, name, node, module.path) if name else None
        if row is not None:
            out.append(
                Diagnostic(
                    path=module.path,
                    line=node.lineno,
                    col=node.col_offset,
                    rule=rule_id,
                    message=row.message(name),
                    hint=row.hint,
                )
            )
    return out


def ban_scope(rule_id: str) -> dict[str, tuple[str, ...]]:
    """Registry scope for a table rule: its rows' paths, shared blessings."""
    rows = rows_for(rule_id)
    paths = () if any(not r.paths for r in rows) else tuple(
        dict.fromkeys(p for r in rows for p in r.paths)
    )
    exclude = tuple(b for b in rows[0].blessed if all(b in r.blessed for r in rows))
    return {"paths": paths, "exclude": exclude}


def _visitor(rule_id: str) -> RuleFunc:
    return lambda module, project: banned_calls(module, rule_id)


for _rule_id, _title, _rationale in (
    (
        "DET001",
        "no unseeded global-state RNG",
        "calls into the process-global random stream (random.*, "
        "np.random.*) or generators seeded from OS entropy draw from state "
        "no config seeds, so two identical configs diverge; route "
        "randomness through a seeded np.random.default_rng/random.Random "
        "instance carried by the component",
    ),
    (
        "DET002",
        "no wall-clock reads on simulation paths",
        "sim-path code must advance on simulated time "
        "(Synchronizer.sim_time, sync periods); a wall-clock read makes "
        "behaviour depend on host speed and breaks bit-reproducibility "
        "across machines",
    ),
    (
        "RES002",
        "no bare time.sleep in the sweep engine",
        "an ad-hoc sleep is an unbounded, nondeterministic wait: sweep-side "
        "waiting must route through the shared backoff helper "
        "(repro.sweep.resilience.backoff_sleep / wait_for) so every delay "
        "is policy-bounded and derived from the config key, not from "
        "tuning folklore",
    ),
    (
        "SRV001",
        "serve code must read time through an injected Clock",
        "the serve layer's determinism (fake-clock harness, hand-driven "
        "lease expiry, reproducible steal scenarios) depends on every time "
        "read and every wait going through the Clock protocol from "
        "repro.serve.clock; a direct host-time call re-couples the "
        "scheduler to wall time and makes the end-to-end service tests "
        "timing-dependent",
    ),
):
    rule(_rule_id, _title, _rationale, **ban_scope(_rule_id))(_visitor(_rule_id))
