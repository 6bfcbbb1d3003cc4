"""The golden-trace corpus: canonical missions with recorded behaviour.

RoSÉ's lockstep synchronization makes every closed-loop mission
deterministic and reproducible (ISCA 2023, Section 4) — so a mission's
entire behaviour can be recorded once and every future change checked
against it.  This module defines a corpus of small canonical missions
spanning the axes the paper sweeps (world x SoC x DNN x sync granularity
x controller x fault plan) and records, per mission:

* the ``mission_signature`` (one hash over everything the run means),
* the scalar metric vector (completion, collisions, velocity, cycles…),
* the full canonical payload — trajectory samples and the
  synchronizer's per-step op stream — so drift is reported as a
  *first divergence* (step, field, expected, actual), never as a bare
  hash mismatch.

Records live under ``tests/golden/`` as one JSON file per mission.
``python -m repro verify --check`` replays the corpus and fails loudly
on any behavioural drift; ``--record`` re-records after an intentional
behaviour change, printing what moved.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.core.config import CoSimConfig, SyncConfig
from repro.core.cosim import run_mission
from repro.core.faults import FaultPlan
from repro.core.manifest import config_from_dict, config_to_dict
from repro.sweep.signature import canonical_payload, mission_signature
from repro.verify.diffutil import Divergence, first_divergence, mission_divergence

GOLDEN_FORMAT = "rose-golden/1"

#: Default corpus location, relative to the repository root.
DEFAULT_GOLDEN_DIR = Path(__file__).resolve().parents[3] / "tests" / "golden"

#: Committed fuzzer-discovered scenario documents (rose-scenario/1).
SCENARIO_DIR = Path(__file__).resolve().parents[3] / "tests" / "scenarios"

#: The scalar metrics surfaced in records and drift reports.
METRIC_FIELDS = (
    "completed",
    "mission_time",
    "failure_reason",
    "sim_time",
    "collisions",
    "progress",
    "average_velocity",
    "activity_factor",
    "soc_cycles",
    "gemmini_busy_cycles",
    "inference_count",
    "mean_inference_latency_ms",
)


def _scenario_mission(filename: str, max_sim_time: float | None = None) -> CoSimConfig:
    """Compile a committed rose-scenario/1 document into a mission config."""
    from repro.scenario import compile_config
    from repro.scenario.schema import Scenario

    doc = json.loads((SCENARIO_DIR / filename).read_text())
    return compile_config(Scenario.from_dict(doc), max_sim_time=max_sim_time)


def golden_missions() -> dict[str, CoSimConfig]:
    """The canonical corpus: one small mission per covered axis.

    Missions are deliberately short (1.5-2 s of simulated time) so the
    whole corpus replays in seconds; each exists to pin down one axis the
    optimization PRs touch — kernels (DNN controllers), sweep/caching
    (every mission), sync granularity, transports, and fault injection.
    """
    return {
        # Baseline: the paper's default closed-loop config.
        "tunnel-dnn-r14-socA": CoSimConfig(
            world="tunnel", soc="A", model="resnet14", max_sim_time=2.0
        ),
        # Small DNN on the Rocket-class SoC.
        "tunnel-dnn-r6-socB": CoSimConfig(
            world="tunnel", soc="B", model="resnet6", max_sim_time=2.0
        ),
        # Second world geometry.
        "sshape-dnn-r14-socA": CoSimConfig(
            world="s-shape", soc="A", model="resnet14", max_sim_time=2.0
        ),
        # Non-DNN controller (no Gemmini in the loop).
        "tunnel-mpc-socA": CoSimConfig(
            world="tunnel", soc="A", controller="mpc", max_sim_time=1.5
        ),
        # Coarse synchronization granularity (Figure 16's right end).
        "tunnel-dnn-sync40M": CoSimConfig(
            world="tunnel",
            soc="A",
            model="resnet14",
            sync=SyncConfig(cycles_per_sync=40_000_000),
            max_sim_time=2.0,
        ),
        # Camera+IMU fusion controller.
        "tunnel-fusion-r6": CoSimConfig(
            world="tunnel",
            soc="A",
            controller="fusion",
            model="resnet6",
            max_sim_time=2.0,
        ),
        # Section 5.3's adaptive dual-network runtime.
        "tunnel-dnn-dynamic": CoSimConfig(
            world="tunnel", soc="A", dynamic_runtime=True, max_sim_time=2.0
        ),
        # Quantized Gemmini datapath.
        "tunnel-dnn-r14-int8": CoSimConfig(
            world="tunnel",
            soc="A",
            model="resnet14",
            gemmini_dtype="int8",
            max_sim_time=2.0,
        ),
        # Seeded fault injection: drops + the degradation paths.
        "tunnel-dnn-faulty-drop": CoSimConfig(
            world="tunnel",
            soc="A",
            model="resnet14",
            max_sim_time=2.0,
            faults=FaultPlan.sensor_response_drop(0.1, seed=7),
        ),
        # Seeded corruption: CRC-discard and recovery paths.
        "tunnel-dnn-faulty-corrupt": CoSimConfig(
            world="tunnel",
            soc="A",
            model="resnet14",
            max_sim_time=2.0,
            faults=FaultPlan(
                seed=11,
                rules=(
                    {"ptype": "CAMERA_RESP", "corrupt": 0.2, "duplicate": 0.1},
                    {"ptype": "IMU_RESP", "delay": 0.2},
                ),
            ),
        ),
        # Fuzzer-discovered (coverage-guided campaign, seed 1): an
        # aggressive all-sensor corruption plan on a short sine course.
        # Trips the CRC-storm degradation path within 2 s; the committed
        # document reproduces a crash on its full 8 s budget.
        "scenario-fuzz-crc-storm": _scenario_mission(
            "fuzz-crc-storm.json", max_sim_time=2.0
        ),
        # Fuzzer-discovered coverage frontier: a fault-free straight
        # course flown fast enough to finish inside the budget — the
        # first corpus entry to reach the completed/100%-progress bins.
        "scenario-fuzz-frontier": _scenario_mission("fuzz-frontier.json"),
    }


# ---------------------------------------------------------------------------
# Records
# ---------------------------------------------------------------------------
@dataclass
class GoldenRecord:
    """One mission's recorded behaviour."""

    name: str
    config: dict[str, Any]
    signature: str
    metrics: dict[str, Any]
    payload: dict[str, Any]
    #: The mission's deterministic obs snapshot (repro.obs metrics dict).
    #: Required: ``verify --check`` compares it after the signature, so a
    #: record without one would let telemetry drift pass.
    obs: dict[str, Any]

    def to_json(self) -> str:
        data: dict[str, Any] = {
            "format": GOLDEN_FORMAT,
            "name": self.name,
            "config": self.config,
            "signature": self.signature,
            "metrics": self.metrics,
            "payload": self.payload,
            "obs": self.obs,
        }
        return json.dumps(data, sort_keys=True, indent=1)

    @classmethod
    def from_json(cls, text: str) -> "GoldenRecord":
        data = json.loads(text)
        if data.get("format") != GOLDEN_FORMAT:
            raise ValueError(f"unsupported golden format {data.get('format')!r}")
        if "obs" not in data:
            raise ValueError("golden record carries no obs snapshot; re-record it")
        return cls(
            name=data["name"],
            config=data["config"],
            signature=data["signature"],
            metrics=data["metrics"],
            payload=data["payload"],
            obs=data["obs"],
        )


def record_mission(name: str, config: CoSimConfig) -> GoldenRecord:
    """Run one mission and capture its golden record."""
    result = run_mission(config)
    if result.obs is None:
        raise ValueError(f"mission {name!r} produced no obs snapshot to record")
    payload = canonical_payload(result)
    metrics = {key: payload[key] for key in METRIC_FIELDS if key in payload}
    return GoldenRecord(
        name=name,
        config=config_to_dict(config),
        signature=mission_signature(result),
        metrics=metrics,
        payload=payload,
        obs=result.obs.metrics,
    )


# ---------------------------------------------------------------------------
# Check / record over a corpus directory
# ---------------------------------------------------------------------------
@dataclass
class MissionCheck:
    """Outcome of replaying one golden mission."""

    name: str
    status: str  # "ok" | "drift" | "config-drift" | "missing" | "stale"
    divergence: Divergence | None = None
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def describe(self) -> str:
        if self.ok:
            return f"[ok]    {self.name}"
        line = f"[{self.status.upper()}] {self.name}"
        if self.detail:
            line += f": {self.detail}"
        if self.divergence is not None:
            line += f"\n        first divergence -> {self.divergence.describe()}"
        return line


@dataclass
class CorpusReport:
    """Everything one ``--check`` or ``--record`` pass produced."""

    checks: list[MissionCheck] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(check.ok for check in self.checks)

    @property
    def failures(self) -> list[MissionCheck]:
        return [check for check in self.checks if not check.ok]

    def describe(self) -> str:
        lines = [check.describe() for check in self.checks]
        passed = sum(1 for check in self.checks if check.ok)
        lines.append(f"{passed}/{len(self.checks)} golden mission(s) conform")
        return "\n".join(lines)


def _record_path(golden_dir: Path, name: str) -> Path:
    return Path(golden_dir) / f"{name}.json"


def _json_round_trip(data: dict[str, Any]) -> dict[str, Any]:
    """Normalize through JSON so tuples/lists compare structurally equal.

    Stored records pass through JSON (tuples become lists); a freshly
    built ``config_to_dict`` has not — without this, every FaultPlan
    config would report spurious drift.
    """
    return json.loads(json.dumps(data, sort_keys=True))


def _check_one(name: str, config: CoSimConfig, record: GoldenRecord) -> MissionCheck:
    """Replay one mission against its record."""
    recorded_config = _json_round_trip(record.config)
    current_config = _json_round_trip(config_to_dict(config))
    if recorded_config != current_config:
        divergence = first_divergence(recorded_config, current_config, name)
        return MissionCheck(
            name=name,
            status="config-drift",
            divergence=divergence,
            detail="corpus definition changed; re-record with "
            "`python -m repro verify --record`",
        )
    result = run_mission(config)
    signature = mission_signature(result)
    if signature == record.signature:
        # The signature covers the canonical payload; the obs snapshot is
        # checked separately so telemetry drift is caught even when the
        # payload agrees.  A replay that lost its snapshot is drift too.
        if result.obs is None:
            return MissionCheck(
                name=name,
                status="drift",
                detail="replayed mission produced no obs snapshot",
            )
        recorded_obs = _json_round_trip(record.obs)
        current_obs = _json_round_trip(result.obs.metrics)
        if recorded_obs != current_obs:
            divergence = first_divergence(recorded_obs, current_obs, f"{name}.obs")
            return MissionCheck(
                name=name,
                status="drift",
                divergence=divergence,
                detail="obs snapshot diverged from recorded telemetry",
            )
        return MissionCheck(name=name, status="ok")
    payload = canonical_payload(result)
    divergence = mission_divergence(record.payload, payload, name)
    if divergence is None:
        # Signature moved but the stored payload matches: the record file
        # itself is inconsistent (hand-edited or truncated).
        return MissionCheck(
            name=name,
            status="drift",
            detail=f"stored signature {record.signature[:12]} does not match "
            f"its own payload (recomputed {signature[:12]}); re-record",
        )
    return MissionCheck(
        name=name,
        status="drift",
        divergence=divergence,
        detail=f"signature {record.signature[:12]} -> {signature[:12]}",
    )


def check_corpus(
    golden_dir: str | Path = DEFAULT_GOLDEN_DIR,
    missions: dict[str, CoSimConfig] | None = None,
    only: str | None = None,
) -> CorpusReport:
    """Replay the corpus against its records; report every mismatch."""
    golden_dir = Path(golden_dir)
    missions = golden_missions() if missions is None else missions
    if only is not None:
        missions = {name: cfg for name, cfg in missions.items() if name == only}
    report = CorpusReport()
    for name, config in sorted(missions.items()):
        path = _record_path(golden_dir, name)
        if not path.is_file():
            report.checks.append(
                MissionCheck(
                    name=name,
                    status="missing",
                    detail=f"no record at {path}; run "
                    "`python -m repro verify --record`",
                )
            )
            continue
        try:
            record = GoldenRecord.from_json(path.read_text())
        except (ValueError, KeyError, json.JSONDecodeError) as exc:
            report.checks.append(
                MissionCheck(
                    name=name, status="drift", detail=f"unreadable record: {exc}"
                )
            )
            continue
        report.checks.append(_check_one(name, config, record))
    # Records with no matching corpus definition are stale.
    known = set(missions)
    if only is None and golden_dir.is_dir():
        for path in sorted(golden_dir.glob("*.json")):
            if path.stem not in known:
                report.checks.append(
                    MissionCheck(
                        name=path.stem,
                        status="stale",
                        detail="record has no corpus definition; delete it or "
                        "restore the mission",
                    )
                )
    return report


def record_corpus(
    golden_dir: str | Path = DEFAULT_GOLDEN_DIR,
    missions: dict[str, CoSimConfig] | None = None,
    only: str | None = None,
) -> CorpusReport:
    """(Re-)record the corpus; report what changed relative to disk."""
    golden_dir = Path(golden_dir)
    golden_dir.mkdir(parents=True, exist_ok=True)
    missions = golden_missions() if missions is None else missions
    if only is not None:
        missions = {name: cfg for name, cfg in missions.items() if name == only}
    report = CorpusReport()
    for name, config in sorted(missions.items()):
        record = record_mission(name, config)
        path = _record_path(golden_dir, name)
        if path.is_file():
            try:
                previous = GoldenRecord.from_json(path.read_text())
            except (ValueError, KeyError, json.JSONDecodeError):
                previous = None
            if previous is not None and previous.signature != record.signature:
                divergence = mission_divergence(
                    previous.payload, record.payload, name
                )
                report.checks.append(
                    MissionCheck(
                        name=name,
                        status="drift",
                        divergence=divergence,
                        detail="re-recorded with new behaviour "
                        f"({previous.signature[:12]} -> {record.signature[:12]})",
                    )
                )
            else:
                report.checks.append(MissionCheck(name=name, status="ok"))
        else:
            report.checks.append(
                MissionCheck(name=name, status="ok", detail="new record")
            )
        path.write_text(record.to_json() + "\n")
    return report


def load_record(golden_dir: str | Path, name: str) -> GoldenRecord:
    """Load one committed record (raises if absent/unreadable)."""
    return GoldenRecord.from_json(_record_path(Path(golden_dir), name).read_text())


def config_for_record(record: GoldenRecord) -> CoSimConfig:
    """Rebuild the runnable config a record was captured from."""
    return config_from_dict(record.config)
