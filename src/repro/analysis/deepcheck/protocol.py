"""DEEP003 — token/grant protocol state-machine conformance.

The co-simulation wire format is a token protocol: the environment side
configures the cycle budget (``SYNC_SET_STEPS``), grants one step at a
time (``SYNC_GRANT``), and the SoC side acknowledges with ``SYNC_DONE``
before the next grant may land; ``SYNC_RESET``/``SYNC_SHUTDOWN`` tear
the session down.  PR 8's ROADMAP item 5 wants this machine to become an
explicit, backend-pluggable protocol — this pass writes the machine down
*now* as data and statically checks every function that touches the
token constructors against it, so refactors toward pluggable backends
cannot silently reorder the handshake.

Per function, the pass extracts the ordered sequence of protocol
operations — calls to the ``sync_*`` packet constructors plus
comparisons against ``PacketType.SYNC_DONE`` or a module-level alias of
it (awaiting the ack) — and
simulates the declared nondeterministic machine over it, starting from
*every* state (a function may legitimately be entered mid-protocol).
An operation that is impossible from every surviving state is a
finding.  The model is linear (loops are unrolled once, branches read
in source order) — coarse, but exactly sharp enough to catch
out-of-order grant/ack sequences like a grant issued after shutdown.

Waive intentional violations at the call site with
``# repro: allow[DEEP003] reason``.
"""

from __future__ import annotations

import ast

from repro.analysis.deepcheck.symbols import FunctionInfo, build_symbols
from repro.analysis.lint.diagnostics import Diagnostic
from repro.analysis.lint.engine import Module, ProjectModel
from repro.analysis.lint.registry import project_rule

#: Packet-constructor (or helper) name -> protocol operation.
PROTOCOL_OPS = {
    "sync_set_steps": "set_steps",
    "sync_grant": "grant",
    "sync_done": "done",
    "sync_reset": "reset",
    "sync_shutdown": "shutdown",
}

#: The declared token/grant machine: state -> op -> next state.
#:
#: * ``idle`` — fresh session; only configuration or teardown may happen.
#: * ``configured`` — budget set; grants may start.  ``done`` self-loops
#:   here because the synchronizer deduplicates stale/re-sent acks for
#:   steps it already executed (watchdog regrant path).
#: * ``granted`` — a step is outstanding; the watchdog may re-issue the
#:   grant (``grant`` self-loop) until the ack arrives.
#: * ``down`` — after shutdown nothing else may be sent.
PROTOCOL_MACHINE: dict[str, dict[str, str]] = {
    "idle": {"set_steps": "configured", "reset": "idle", "shutdown": "down"},
    "configured": {
        "grant": "granted",
        "done": "configured",
        "reset": "idle",
        "shutdown": "down",
    },
    "granted": {
        "grant": "granted",
        "done": "configured",
        "reset": "idle",
        "shutdown": "down",
    },
    "down": {},
}


def _is_sync_done(dotted: str | None) -> bool:
    return dotted is not None and dotted.endswith("PacketType.SYNC_DONE")


def _sync_done_aliases(module: Module) -> set[str]:
    """Module-level names bound to ``PacketType.SYNC_DONE`` (hot paths
    alias enum members to skip the class attribute lookup)."""
    return {
        target.id
        for node in module.tree.body
        if isinstance(node, ast.Assign) and _is_sync_done(module.dotted(node.value))
        for target in node.targets
        if isinstance(target, ast.Name)
    }


def function_protocol_ops(
    func: FunctionInfo, module: Module
) -> list[tuple[int, int, str]]:
    """Ordered ``(line, col, op)`` protocol events in one function body."""
    events: list[tuple[int, int, str]] = []
    aliases = _sync_done_aliases(module)
    for node in ast.walk(func.node):
        if isinstance(node, ast.Call):
            dotted = module.call_name(node)
            if dotted is not None:
                op = PROTOCOL_OPS.get(dotted.rsplit(".", 1)[-1])
                if op is not None:
                    events.append((node.lineno, node.col_offset, op))
        elif isinstance(node, ast.Compare):
            # `packet.ptype == PacketType.SYNC_DONE` — awaiting the ack.
            for comparand in [node.left, *node.comparators]:
                dotted = module.dotted(comparand)
                if _is_sync_done(dotted) or dotted in aliases:
                    events.append((node.lineno, node.col_offset, "done"))
    events.sort(key=lambda e: (e[0], e[1]))
    return events


def check_sequence(
    events: list[tuple[int, int, str]],
    machine: dict[str, dict[str, str]] = PROTOCOL_MACHINE,
) -> tuple[int, int, str, str] | None:
    """First impossible event, or ``None`` when some start state accepts.

    Runs the machine nondeterministically: the live set starts as every
    state and each event maps it through the transition table.  Returns
    ``(line, col, op, live_states)`` for the first event that empties
    the live set.
    """
    live = set(machine)
    for line, col, op in events:
        stepped = {machine[state][op] for state in live if op in machine[state]}
        if not stepped:
            return (line, col, op, ",".join(sorted(live)))
        live = stepped
    return None


@project_rule(
    "DEEP003",
    "token/grant call sequences must conform to the declared protocol machine",
    "the synchronizer/bridge handshake (set_steps -> grant -> done, with "
    "watchdog regrants and teardown) is the contract a backend-pluggable "
    "protocol must keep; a function whose send/recv sequence is impossible "
    "under the declared machine would deadlock or double-grant a real "
    "backend even if today's in-process loopback tolerates it",
)
def deep003_protocol_conformance(project: ProjectModel) -> list[Diagnostic]:
    symbols = build_symbols(project)
    out: list[Diagnostic] = []
    for qualname in sorted(symbols.functions):
        info = symbols.functions[qualname]
        # The packet constructors themselves are definitions, not uses.
        if info.name in PROTOCOL_OPS:
            continue
        module = project.by_path[info.path]
        events = function_protocol_ops(info, module)
        if len(events) < 2:
            continue  # a single op is legal from some state by construction
        violation = check_sequence(events)
        if violation is None:
            continue
        line, col, op, live = violation
        sequence = " -> ".join(op for _, _, op in events)
        out.append(
            Diagnostic(
                path=info.path,
                line=line,
                col=col,
                rule="DEEP003",
                message=f"protocol op '{op}' is impossible here (live states: "
                f"{live}) in {qualname} [sequence: {sequence}]",
                hint="re-order the handshake to match the declared machine in "
                "repro.analysis.deepcheck.protocol.PROTOCOL_MACHINE, or "
                "waive with a reason if this is a deliberate fault probe",
            )
        )
    return out
