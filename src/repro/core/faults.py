"""Deterministic fault injection for the co-simulation link.

The synchronizer <-> bridge-driver link of Section 3.4.1 is a real
network link in the deployed system, and real links drop, corrupt,
duplicate, and delay packets.  This module provides the declarative
description of such faults and the machinery that injects them:

* :class:`FaultPlan` — an immutable, JSON-serializable description of the
  faults one run should experience: per-packet-type probabilities
  (:class:`FaultRule`), scheduled one-shot windows (:class:`ScheduledFault`,
  e.g. "drop every CAMERA_RESP in steps 40-60"), and sensor faults
  (stuck-value IMU, blacked-out camera) applied at the synchronizer.
* :class:`FaultInjector` — the per-run mutable state: a seeded RNG, the
  current synchronization step, and the one count of every wire fault it
  injected.  The same plan and seed reproduce byte-identical fault
  decisions across runs, because the packet stream itself is
  deterministic.

Wire faults are applied by :class:`repro.core.transport.FaultyTransport`,
which consults the injector on every ``send``; sensor faults are applied
by the :class:`~repro.core.synchronizer.Synchronizer` when it services
sensor requests.  Faulting synchronization packet types (``SYNC_GRANT``,
``SYNC_DONE``) is permitted — it exercises the watchdog/regrant path —
but dropping ``SYNC_SET_STEPS`` breaks bridge configuration, exactly as
it would in the real deployment.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Any

from repro.core.packets import HEADER_SIZE, PacketType
from repro.errors import ConfigError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.invariants import InvariantChecker

#: The data packet types carrying sensor responses (synchronizer -> SoC).
SENSOR_RESPONSE_TYPES = (
    PacketType.IMU_RESP,
    PacketType.CAMERA_RESP,
    PacketType.DEPTH_RESP,
    PacketType.STATE_RESP,
    PacketType.LIDAR_RESP,
)

#: Scheduled fault kinds: wire-level windows and sensor faults.
SCHEDULED_KINDS = ("drop", "corrupt", "stuck_imu", "camera_blackout")


def _coerce_ptype(value: object) -> PacketType:
    if isinstance(value, PacketType):
        return value
    if isinstance(value, int):
        return PacketType(value)
    if isinstance(value, str):
        try:
            return PacketType[value]
        except KeyError:
            raise ConfigError(f"unknown packet type name {value!r}") from None
    raise ConfigError(f"cannot interpret {value!r} as a packet type")


@dataclass(frozen=True)
class FaultRule:
    """Independent per-packet fault probabilities for one packet type.

    ``delay_steps`` is how many synchronization steps a delayed packet is
    held before it reaches the wire (the delay fault fires with
    probability ``delay``).
    """

    ptype: PacketType
    drop: float = 0.0
    corrupt: float = 0.0
    duplicate: float = 0.0
    delay: float = 0.0
    delay_steps: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "ptype", _coerce_ptype(self.ptype))
        for name in ("drop", "corrupt", "duplicate", "delay"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ConfigError(f"{name} probability must be in [0, 1], got {p}")
        if self.delay_steps < 1:
            raise ConfigError("delay_steps must be at least 1")


@dataclass(frozen=True)
class ScheduledFault:
    """A one-shot fault active for steps in ``[start_step, end_step)``.

    ``kind`` is one of :data:`SCHEDULED_KINDS`; the wire kinds (``drop``,
    ``corrupt``) require a ``ptype``, the sensor kinds (``stuck_imu``,
    ``camera_blackout``) ignore it.
    """

    kind: str
    start_step: int
    end_step: int
    ptype: PacketType | None = None

    def __post_init__(self) -> None:
        if self.kind not in SCHEDULED_KINDS:
            raise ConfigError(
                f"scheduled fault kind must be one of {SCHEDULED_KINDS}, got {self.kind!r}"
            )
        if self.start_step < 0 or self.end_step <= self.start_step:
            raise ConfigError(
                f"scheduled fault window [{self.start_step}, {self.end_step}) is empty"
            )
        if self.kind in ("drop", "corrupt"):
            if self.ptype is None:
                raise ConfigError(f"scheduled {self.kind!r} fault requires a packet type")
            object.__setattr__(self, "ptype", _coerce_ptype(self.ptype))

    def active(self, step: int) -> bool:
        return self.start_step <= step < self.end_step


@dataclass(frozen=True)
class FaultPlan:
    """Declarative, seed-reproducible fault description for one run."""

    seed: int = 0
    rules: tuple[FaultRule, ...] = ()
    scheduled: tuple[ScheduledFault, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "rules",
            tuple(r if isinstance(r, FaultRule) else FaultRule(**r) for r in self.rules),
        )
        object.__setattr__(
            self,
            "scheduled",
            tuple(
                s if isinstance(s, ScheduledFault) else ScheduledFault(**s)
                for s in self.scheduled
            ),
        )
        seen = set()
        for rule in self.rules:
            if rule.ptype in seen:
                raise ConfigError(f"duplicate fault rule for {rule.ptype.name}")
            seen.add(rule.ptype)

    # -- convenience constructors --------------------------------------
    @classmethod
    def sensor_response_drop(cls, probability: float, seed: int = 0) -> "FaultPlan":
        """Drop each sensor-response packet independently with ``probability``."""
        return cls(
            seed=seed,
            rules=tuple(
                FaultRule(ptype=ptype, drop=probability)
                for ptype in SENSOR_RESPONSE_TYPES
            ),
        )

    # -- (de)serialization ---------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        data = asdict(self)
        for rule in data["rules"]:
            rule["ptype"] = PacketType(rule["ptype"]).name
        for fault in data["scheduled"]:
            if fault["ptype"] is not None:
                fault["ptype"] = PacketType(fault["ptype"]).name
        return data

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "FaultPlan":
        if not isinstance(data, dict):
            raise ConfigError(f"fault plan must be a JSON object, got {type(data).__name__}")
        known = {"seed", "rules", "scheduled"}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown fault plan fields: {sorted(unknown)}")
        return cls(
            seed=int(data.get("seed", 0)),
            rules=tuple(data.get("rules", ())),
            scheduled=tuple(data.get("scheduled", ())),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid fault plan JSON: {exc}") from exc
        return cls.from_dict(data)


def load_fault_plan(spec: str) -> FaultPlan:
    """Parse a fault plan from an inline JSON object or a file path."""
    spec = spec.strip()
    if spec.startswith("{"):
        return FaultPlan.from_json(spec)
    try:
        with open(spec) as handle:
            return FaultPlan.from_json(handle.read())
    except OSError as exc:
        raise ConfigError(f"cannot read fault plan file {spec!r}: {exc}") from exc


@dataclass(frozen=True)
class FaultDecision:
    """What to do with one outbound packet."""

    drop: bool = False
    corrupt: bool = False
    duplicate: bool = False
    delay_steps: int = 0


_NO_FAULT = FaultDecision()


class FaultInjector:
    """Per-run fault state: seeded RNG, current step, injection counts.

    One injector is shared by every :class:`FaultyTransport` wrapper and
    the synchronizer of a run, so the RNG is consumed in the (deterministic)
    order packets cross the link.  :attr:`injected` is the one count of
    the link's wire faults; every fault total is read from it
    (:meth:`total`).  Sensor faults are counted where they are served, in
    ``SyncStats.sensor_faults``.
    """

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self.step = 0
        self._rng = random.Random(plan.seed)
        self._rules = {rule.ptype: rule for rule in plan.rules}
        #: Optional conformance hook (repro.core.invariants): verifies the
        #: step counter only ever moves forward.
        self.invariants: "InvariantChecker | None" = None
        #: Injections by (kind, packet type), counted at the moment they
        #: are decided (the mission's ``rose_faults_injected_total``).
        #: Purely observational — no RNG is consumed recording them.
        self.injected: dict[tuple[str, PacketType], int] = {}

    def _record(self, kind: str, ptype: PacketType) -> None:
        key = (kind, ptype)
        self.injected[key] = self.injected.get(key, 0) + 1

    def total(self, kind: str) -> int:
        """Injections of one ``kind`` (``drop``/``corrupt``/``duplicate``/
        ``delay``) over every packet type so far."""
        return sum(count for (k, _), count in self.injected.items() if k == kind)

    def begin_step(self, step_index: int) -> None:
        """Advance the injector's notion of the current sync step."""
        if self.invariants is not None:
            self.invariants.on_injector_step(self.step, step_index)
        self.step = step_index

    # -- scheduled faults ----------------------------------------------
    def _scheduled_active(self, kind: str, ptype: PacketType | None = None) -> bool:
        return any(
            fault.kind == kind
            and fault.active(self.step)
            and (ptype is None or fault.ptype == ptype)
            for fault in self.plan.scheduled
        )

    def stuck_imu_active(self) -> bool:
        return self._scheduled_active("stuck_imu")

    def camera_blackout_active(self) -> bool:
        return self._scheduled_active("camera_blackout")

    # -- wire faults ----------------------------------------------------
    def decide(self, ptype: PacketType) -> FaultDecision:
        """Decide this packet's fate; consumes RNG only for matching rules."""
        if self._scheduled_active("drop", ptype):
            self._record("drop", ptype)
            return FaultDecision(drop=True)
        corrupt = self._scheduled_active("corrupt", ptype)
        rule = self._rules.get(ptype)
        duplicate = False
        delay_steps = 0
        if rule is not None:
            if rule.drop and self._rng.random() < rule.drop:
                self._record("drop", ptype)
                return FaultDecision(drop=True)
            if not corrupt and rule.corrupt:
                corrupt = self._rng.random() < rule.corrupt
            if rule.duplicate:
                duplicate = self._rng.random() < rule.duplicate
            if rule.delay and self._rng.random() < rule.delay:
                delay_steps = rule.delay_steps
        if not (corrupt or duplicate or delay_steps):
            return _NO_FAULT
        if corrupt:
            self._record("corrupt", ptype)
        if duplicate:
            self._record("duplicate", ptype)
        if delay_steps:
            self._record("delay", ptype)
        return FaultDecision(
            corrupt=corrupt, duplicate=duplicate, delay_steps=delay_steps
        )

    def corrupt_wire(self, wire: bytes) -> bytes:
        """Flip one byte of the frame, preserving framing (header length
        field and magic untouched) so the receiver discards exactly one
        packet via its CRC check rather than losing stream sync."""
        mutated = bytearray(wire)
        if len(mutated) > HEADER_SIZE:
            index = HEADER_SIZE + self._rng.randrange(len(mutated) - HEADER_SIZE)
        else:
            index = 3  # empty payload: flip the CRC byte itself
        mutated[index] ^= 1 + self._rng.randrange(255)
        return bytes(mutated)
