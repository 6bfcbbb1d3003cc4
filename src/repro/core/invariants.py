"""Runtime invariant checking for the co-simulation machinery.

RoSÉ's claim that co-simulation results are trustworthy rests on the
lockstep protocol behaving exactly as specified (Section 3.4.1 /
Algorithm 1).  This module is the standing witness for that contract:
an :class:`InvariantChecker` woven (optionally) into the
:class:`~repro.core.synchronizer.Synchronizer`, the
:class:`~repro.core.bridge.RoseBridge`, and the
:class:`~repro.core.faults.FaultInjector` that asserts, every
synchronization step:

* **Monotonic sim time** — simulated time advances by exactly one
  synchronization period per completed step, never backwards.
* **Grant/ack pairing** — every completed step was granted (possibly
  re-granted by the watchdog) and acknowledged exactly once; the FireSim
  host executed each step exactly once.
* **Token conservation** — the SoC advanced exactly
  ``steps * cycles_per_sync`` cycles, and the bridge's hardware queues
  balance (enqueued == dequeued + buffered, byte totals match the queued
  packets).
* **CRC-discard accounting** — frames discarded on decode never exceed
  the corruptions the fault injector actually applied, and are zero on a
  fault-free link.

Checking is observational: a passing run is bit-identical with the
checker on or off.  A violation raises
:class:`~repro.errors.InvariantViolation` — the co-simulation machinery
broke its own contract, which is a harness bug, never an experimental
outcome.

Enablement is resolved by :func:`invariants_enabled`: an explicit
``CoSimConfig.check_invariants`` wins; otherwise the
``REPRO_CHECK_INVARIANTS`` environment variable; otherwise checking is
on automatically under pytest (``PYTEST_CURRENT_TEST`` is set) and off
elsewhere.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import InvariantViolation

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (cosim imports us)
    from repro.core.bridge import RoseBridge
    from repro.core.config import CoSimConfig, SyncConfig
    from repro.core.faults import FaultInjector
    from repro.core.transport import Transport
    from repro.soc.firesim import FireSimHost
    from repro.soc.soc import Soc

#: Environment variable forcing invariant checking on ("1") or off ("0")
#: when ``CoSimConfig.check_invariants`` is left at ``None`` (auto).
ENV_FLAG = "REPRO_CHECK_INVARIANTS"

_FALSEY = ("", "0", "false", "no", "off")


def invariants_enabled(config: "CoSimConfig") -> bool:
    """Resolve the three-state ``check_invariants`` flag to a decision.

    Explicit ``True``/``False`` on the config wins; otherwise the
    ``REPRO_CHECK_INVARIANTS`` environment variable; otherwise checks are
    enabled exactly when running under pytest.
    """
    if config.check_invariants is not None:
        return bool(config.check_invariants)
    env = os.environ.get(ENV_FLAG)
    if env is not None:
        return env.strip().lower() not in _FALSEY
    return "PYTEST_CURRENT_TEST" in os.environ


@dataclass
class InvariantReport:
    """What the checker verified over one mission (all counters)."""

    steps_checked: int = 0
    grants_seen: int = 0
    dones_seen: int = 0
    stale_dones_seen: int = 0
    bridge_checks: int = 0
    link_checks: int = 0
    injector_steps: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "steps_checked": self.steps_checked,
            "grants_seen": self.grants_seen,
            "dones_seen": self.dones_seen,
            "stale_dones_seen": self.stale_dones_seen,
            "bridge_checks": self.bridge_checks,
            "link_checks": self.link_checks,
            "injector_steps": self.injector_steps,
        }


class InvariantChecker:
    """Cross-layer assertion engine for one co-simulation run.

    The mission runner constructs one checker, points it at the
    components it should watch (:meth:`watch`), and the synchronizer
    drives it through the per-step hooks.  All checks raise
    :class:`~repro.errors.InvariantViolation` with a message naming the
    invariant and the observed values.
    """

    def __init__(self, sync: "SyncConfig"):
        self.sync = sync
        self.report = InvariantReport()
        self._bridge: "RoseBridge | None" = None
        self._host: "FireSimHost | None" = None
        self._soc: "Soc | None" = None
        self._transports: tuple["Transport", ...] = ()
        self._injector: "FaultInjector | None" = None
        self._last_sim_time: float | None = None
        self._granted_step: int | None = None
        self._done_step: int | None = None
        self._completed_steps = 0

    # ------------------------------------------------------------------
    def watch(
        self,
        bridge: "RoseBridge | None" = None,
        host: "FireSimHost | None" = None,
        soc: "Soc | None" = None,
        transports: tuple["Transport", ...] = (),
        injector: "FaultInjector | None" = None,
    ) -> None:
        """Register the components whose cross-layer state is checked."""
        self._bridge = bridge
        self._host = host
        self._soc = soc
        self._transports = tuple(transports)
        self._injector = injector

    @staticmethod
    def _fail(invariant: str, detail: str) -> None:
        raise InvariantViolation(f"[{invariant}] {detail}")

    # ------------------------------------------------------------------
    # Synchronizer hooks
    # ------------------------------------------------------------------
    def on_grant(self, step_index: int) -> None:
        """A SYNC_GRANT (or watchdog regrant) left the synchronizer."""
        self.report.grants_seen += 1
        if step_index < self._completed_steps:
            self._fail(
                "grant-pairing",
                f"grant issued for already-completed step {step_index} "
                f"({self._completed_steps} steps complete)",
            )
        self._granted_step = step_index

    def on_done(self, step_index: int, stale: bool = False) -> None:
        """A SYNC_DONE was accepted (or recognized as a stale duplicate)."""
        if stale:
            self.report.stale_dones_seen += 1
            if step_index >= self._completed_steps:
                self._fail(
                    "grant-pairing",
                    f"SYNC_DONE for step {step_index} classified stale but only "
                    f"{self._completed_steps} steps are complete",
                )
            return
        if self._done_step is not None and step_index == self._done_step:
            # A duplicated/re-acknowledged SYNC_DONE for the step that just
            # completed (injected duplication, regrant aftermath) — benign.
            self.report.stale_dones_seen += 1
            return
        self.report.dones_seen += 1
        if self._granted_step is None or step_index != self._granted_step:
            self._fail(
                "grant-pairing",
                f"SYNC_DONE for step {step_index} without a matching grant "
                f"(granted: {self._granted_step})",
            )
        if self._done_step is not None and step_index < self._done_step:
            self._fail(
                "grant-pairing",
                f"completion went backwards: step {step_index} after "
                f"step {self._done_step}",
            )
        self._done_step = step_index

    def after_step(self, step_index: int, sim_time: float) -> None:
        """End-of-step checks: time, pairing, tokens, queues, CRC books."""
        self.report.steps_checked += 1
        # -- monotonic sim time (advance by exactly one period) ----------
        if self._last_sim_time is None:
            expected = 0.0 + self.sync.sync_period_seconds
        else:
            expected = self._last_sim_time + self.sync.sync_period_seconds
        if sim_time != expected:
            self._fail(
                "monotonic-sim-time",
                f"step {step_index} advanced sim time to {sim_time!r}, "
                f"expected exactly {expected!r} "
                f"(previous {self._last_sim_time!r} + period "
                f"{self.sync.sync_period_seconds!r})",
            )
        self._last_sim_time = sim_time
        # -- grant/ack pairing -------------------------------------------
        if self._done_step != step_index:
            self._fail(
                "grant-pairing",
                f"step {step_index} ended without its SYNC_DONE "
                f"(last acknowledged: {self._done_step})",
            )
        self._completed_steps = step_index + 1
        if self._host is not None:
            executed = getattr(self._host, "steps_completed", None)
            if executed is not None and executed != self._completed_steps:
                self._fail(
                    "grant-pairing",
                    f"host executed {executed} step(s) but the synchronizer "
                    f"completed {self._completed_steps}",
                )
        # -- token conservation ------------------------------------------
        if self._soc is not None:
            expected_cycles = self._completed_steps * self.sync.cycles_per_sync
            if self._soc.cycle != expected_cycles:
                self._fail(
                    "token-conservation",
                    f"SoC advanced {self._soc.cycle} cycles after "
                    f"{self._completed_steps} step(s); the granted budget is "
                    f"{expected_cycles}",
                )
        if self._bridge is not None:
            self.check_bridge(self._bridge)
        self.check_link()

    # ------------------------------------------------------------------
    # Bridge hooks
    # ------------------------------------------------------------------
    def check_bridge(self, bridge: "RoseBridge") -> None:
        """Hardware-queue conservation: counts and byte totals balance."""
        self.report.bridge_checks += 1
        counters = bridge.counters
        rx_pending = bridge.target_rx_count()
        if counters.rx_enqueued - counters.rx_dequeued != rx_pending:
            self._fail(
                "token-conservation",
                f"RX queue books do not balance: enqueued {counters.rx_enqueued}"
                f" - dequeued {counters.rx_dequeued} != {rx_pending} buffered",
            )
        tx_pending = bridge.pending_tx_count
        if counters.tx_enqueued - counters.tx_dequeued != tx_pending:
            self._fail(
                "token-conservation",
                f"TX queue books do not balance: enqueued {counters.tx_enqueued}"
                f" - dequeued {counters.tx_dequeued} != {tx_pending} buffered",
            )
        bridge.check_conservation()

    # ------------------------------------------------------------------
    # Link / fault-injector hooks
    # ------------------------------------------------------------------
    def check_link(self) -> None:
        """CRC-discard accounting across the watched transports."""
        if not self._transports:
            return
        self.report.link_checks += 1
        discards = sum(
            getattr(transport, "corrupt_packets", 0)
            for transport in self._transports
        )
        if self._injector is None:
            if discards:
                self._fail(
                    "crc-accounting",
                    f"{discards} frame(s) discarded on decode with no fault "
                    "injector configured",
                )
            return
        corrupted = self._injector.total("corrupt")
        duplicated = self._injector.total("duplicate")
        # A corrupted frame that is also duplicated is discarded twice, so
        # the safe upper bound admits one extra discard per duplication.
        if discards > corrupted + duplicated:
            self._fail(
                "crc-accounting",
                f"{discards} frame(s) discarded on decode but the injector "
                f"only corrupted {corrupted} (+{duplicated} duplicated)",
            )

    def on_injector_step(self, previous: int, current: int) -> None:
        """The fault injector's step counter must never move backwards."""
        self.report.injector_steps += 1
        if current < previous:
            self._fail(
                "injector-monotonic",
                f"fault injector stepped backwards: {previous} -> {current}",
            )
