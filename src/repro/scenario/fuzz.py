"""Coverage-guided scenario fuzzing on top of the sweep engine.

The loop is classic mutation fuzzing with the repo's determinism
discipline:

* The *corpus* starts from :func:`~repro.scenario.schema.legacy_scenarios`
  (the two paper worlds) and grows by admission: a mutant joins when its
  mission lights up a coverage bin (:mod:`repro.scenario.coverage`) no
  earlier mission hit.
* *Mutators* are small seeded edits — geometry stretch/family swap,
  obstacle add/move/drop, sensor-noise scaling, fault-plan injection,
  spawn and velocity perturbation.  Every draw comes from one injected
  :class:`random.Random`; an infeasible draw
  (:class:`~repro.errors.ScenarioError` from the compiler) is simply
  redrawn.  Lint rule DET001 keeps module-level RNGs out of this package.
* *Evaluation* goes through :class:`~repro.sweep.runner.SweepRunner`,
  which preserves task order in its outcomes regardless of worker
  scheduling — so coverage observation (and therefore admission, corpus
  order, and the final map) is deterministic even with parallel workers.
* *Minimization* greedily strips an admitted failure scenario back
  toward defaults (obstacles, faults, noise, spawn, velocity, sync),
  keeping each reduction only if the failure mode survives, to a
  fixpoint — the committed reproducer is the smallest document this
  deterministic pass can reach.

Artifacts under the corpus directory (all canonical, no timestamps):
``scenarios/<key>.json`` (admitted documents), ``corpus.jsonl``
(admission journal in admission order), ``coverage.json`` (the map),
``report.json`` (campaign summary), ``minimized/<source-key>.json``
(reproducers).  Two runs with the same seed and budget produce
byte-identical trees.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable

from repro.core.config import CoSimConfig
from repro.core.cosim import MissionResult, run_mission
from repro.core.faults import (
    SCHEDULED_KINDS,
    SENSOR_RESPONSE_TYPES,
    FaultPlan,
    FaultRule,
    ScheduledFault,
)
from repro.env.sensors import SensorNoiseProfile
from repro.errors import ConfigError, ScenarioError
from repro.scenario.coverage import CoverageMap, failure_modes, mission_features
from repro.scenario.generate import (
    CENTERLINE_MARGIN,
    GOAL_CLEARANCE,
    SPAWN_CLEARANCE,
    VEHICLE_RADIUS,
    compile_config,
)
from repro.scenario.schema import (
    GeometrySpec,
    ObstacleSpec,
    Scenario,
    SpawnSpec,
    legacy_scenarios,
    scenario_key,
)
from repro.sweep.runner import SweepRunner
from repro.sweep.signature import mission_signature

FUZZ_REPORT_FORMAT = "rose-fuzz-report/1"
MINIMIZED_FORMAT = "rose-fuzz-min/1"

#: When every failure mode is present, minimize the highest-priority one.
_MODE_PRIORITY = ("watchdog", "link-timeout", "crash", "deadline-miss", "crc-storm")

#: Redraws per mutation before falling back to a plain reseed.
_MUTATION_RETRIES = 8


@dataclass(frozen=True)
class FuzzSettings:
    """One campaign's knobs.  Identical settings ⇒ identical artifacts."""

    budget: int = 25
    seed: int = 0
    workers: int = 1
    round_size: int = 5
    #: Simulated-time budget per mission; short missions keep campaigns
    #: cheap and make the ``deadline-miss`` mode reachable.
    max_sim_time: float = 8.0

    def __post_init__(self) -> None:
        if self.budget < 1:
            raise ConfigError("fuzz budget must be at least 1")
        if not (0 <= self.seed < 2**32):
            raise ConfigError("fuzz seed must lie in [0, 2**32)")
        if self.workers < 1:
            raise ConfigError("fuzz workers must be at least 1")
        if self.round_size < 1:
            raise ConfigError("fuzz round_size must be at least 1")
        if self.max_sim_time <= 0:
            raise ConfigError("fuzz max_sim_time must be positive")


@dataclass
class CorpusEntry:
    """One admitted scenario plus why it was admitted."""

    key: str
    scenario: Scenario
    signature: str
    round: int
    new_bins: tuple[str, ...]
    failure_modes: tuple[str, ...]

    def journal_dict(self) -> dict[str, Any]:
        return {
            "key": self.key,
            "name": self.scenario.name,
            "signature": self.signature,
            "round": self.round,
            "new_bins": list(self.new_bins),
            "failure_modes": list(self.failure_modes),
        }


@dataclass
class FuzzReport:
    """Campaign summary (the ``report.json`` content, minus formatting)."""

    settings: FuzzSettings
    baseline_bins: int
    coverage_bins: int
    evaluated: int
    admitted: int
    failures: dict[str, list[str]]
    minimized: dict[str, str] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "format": FUZZ_REPORT_FORMAT,
            "budget": self.settings.budget,
            "seed": self.settings.seed,
            "round_size": self.settings.round_size,
            "max_sim_time": self.settings.max_sim_time,
            "baseline_bins": self.baseline_bins,
            "coverage_bins": self.coverage_bins,
            "evaluated": self.evaluated,
            "admitted": self.admitted,
            "failures": {key: sorted(modes) for key, modes in sorted(self.failures.items())},
            "minimized": dict(sorted(self.minimized.items())),
        }


# ---------------------------------------------------------------------------
# Mutators
# ---------------------------------------------------------------------------
def _mutate_geometry_length(rng: random.Random, s: Scenario) -> Scenario:
    length = min(200.0, max(20.0, s.geometry.length * rng.uniform(0.5, 1.8)))
    return replace(s, geometry=replace(s.geometry, length=round(length, 2)))


def _mutate_geometry_width(rng: random.Random, s: Scenario) -> Scenario:
    width = min(12.0, max(2.0, s.geometry.width * rng.uniform(0.6, 1.6)))
    return replace(s, geometry=replace(s.geometry, width=round(width, 2)))


def _mutate_geometry_amplitude(rng: random.Random, s: Scenario) -> Scenario:
    amplitude = max(0.5, s.geometry.amplitude * rng.uniform(0.4, 1.6))
    return replace(s, geometry=replace(s.geometry, amplitude=round(amplitude, 2)))


def _mutate_geometry_family(rng: random.Random, s: Scenario) -> Scenario:
    family = rng.choice([f for f in ("straight", "sine", "zigzag") if f != s.geometry.family])
    length, width = s.geometry.length, s.geometry.width
    if family == "straight":
        geometry = GeometrySpec(family="straight", length=length, width=width)
    elif family == "sine":
        amplitude = round(rng.uniform(0.5, length / 4.0), 2)
        geometry = GeometrySpec(
            family="sine", length=length, width=width, amplitude=amplitude,
            periods=rng.choice([0.5, 1.0, 1.5, 2.0]),
        )
    else:
        segments = rng.randint(3, 12)
        amplitude = round(rng.uniform(0.5, length / (2.0 * segments)), 2)
        geometry = GeometrySpec(
            family="zigzag", length=length, width=width,
            amplitude=amplitude, segments=segments,
        )
    # Obstacle placements rarely survive a family swap; start clean.
    return replace(s, geometry=geometry, obstacles=())


def _mutate_sine_periods(rng: random.Random, s: Scenario) -> Scenario:
    if s.geometry.family != "sine":
        raise ScenarioError("periods mutation applies to sine geometry")
    periods = rng.choice([0.5, 0.75, 1.5, 2.0, 3.0])
    return replace(s, geometry=replace(s.geometry, periods=periods))


def _mutate_zigzag_segments(rng: random.Random, s: Scenario) -> Scenario:
    if s.geometry.family != "zigzag":
        raise ScenarioError("segments mutation applies to zigzag geometry")
    return replace(s, geometry=replace(s.geometry, segments=rng.randint(2, 16)))


def _mutate_obstacle_add(rng: random.Random, s: Scenario) -> Scenario:
    half_width = s.geometry.width / 2.0
    max_radius = min(0.8, half_width - VEHICLE_RADIUS - CENTERLINE_MARGIN - 0.1)
    if max_radius < 0.15:
        raise ScenarioError("corridor too narrow for an obstacle")
    radius = round(rng.uniform(0.15, max_radius), 2)
    s_lo = SPAWN_CLEARANCE + radius + 0.1
    s_hi = s.geometry.length - GOAL_CLEARANCE * 2.0 - radius - 0.1
    if s_hi <= s_lo:
        raise ScenarioError("course too short for an obstacle")
    d_lo = radius + VEHICLE_RADIUS + CENTERLINE_MARGIN + 0.02
    d_hi = half_width
    if d_hi <= d_lo:
        raise ScenarioError("no lateral room for an obstacle")
    obstacle = ObstacleSpec(
        s=round(rng.uniform(s_lo, s_hi), 2),
        d=round(rng.choice([-1.0, 1.0]) * rng.uniform(d_lo, d_hi), 2),
        radius=radius,
        shape=rng.choice(["diamond", "box"]),
    )
    return replace(s, obstacles=s.obstacles + (obstacle,))


def _mutate_obstacle_move(rng: random.Random, s: Scenario) -> Scenario:
    if not s.obstacles:
        raise ScenarioError("no obstacle to move")
    index = rng.randrange(len(s.obstacles))
    ob = s.obstacles[index]
    moved = ObstacleSpec(
        s=round(max(0.0, ob.s + rng.uniform(-5.0, 5.0)), 2),
        d=round(ob.d + rng.uniform(-0.6, 0.6), 2),
        radius=ob.radius,
        shape=ob.shape,
    )
    obstacles = list(s.obstacles)
    obstacles[index] = moved
    return replace(s, obstacles=tuple(obstacles))


def _mutate_obstacle_drop(rng: random.Random, s: Scenario) -> Scenario:
    if not s.obstacles:
        raise ScenarioError("no obstacle to drop")
    index = rng.randrange(len(s.obstacles))
    return replace(s, obstacles=s.obstacles[:index] + s.obstacles[index + 1 :])


def _mutate_noise(rng: random.Random, s: Scenario) -> Scenario:
    scales = s.noise.to_dict()
    which = rng.choice(sorted(scales))
    scales[which] = round(rng.uniform(0.0, 8.0), 2)
    return replace(s, noise=SensorNoiseProfile(**scales))


def _mutate_fault_wire(rng: random.Random, s: Scenario) -> Scenario:
    kind = rng.choice(["drop", "corrupt", "duplicate", "delay"])
    probability = round(rng.uniform(0.05, 0.5), 3)
    seed = rng.randrange(2**16)
    rules = tuple(
        FaultRule(ptype=ptype, **{kind: probability})
        for ptype in SENSOR_RESPONSE_TYPES
    )
    scheduled = s.faults.scheduled if s.faults is not None else ()
    return replace(s, faults=FaultPlan(seed=seed, rules=rules, scheduled=scheduled))


def _mutate_fault_window(rng: random.Random, s: Scenario) -> Scenario:
    kind = rng.choice(list(SCHEDULED_KINDS))
    start = rng.randint(0, 30)
    window = ScheduledFault(
        kind=kind,
        start_step=start,
        end_step=start + rng.randint(2, 20),
        ptype=rng.choice(list(SENSOR_RESPONSE_TYPES)) if kind in ("drop", "corrupt") else None,
    )
    base = s.faults if s.faults is not None else FaultPlan(seed=rng.randrange(2**16))
    return replace(s, faults=replace(base, scheduled=base.scheduled + (window,)))


def _mutate_fault_drop(rng: random.Random, s: Scenario) -> Scenario:
    if s.faults is None:
        raise ScenarioError("no fault plan to drop")
    return replace(s, faults=None)


def _mutate_velocity(rng: random.Random, s: Scenario) -> Scenario:
    velocity = round(rng.uniform(1.0, 8.0), 2)
    return replace(s, vehicle=replace(s.vehicle, target_velocity=velocity))


def _mutate_spawn_angle(rng: random.Random, s: Scenario) -> Scenario:
    return replace(s, spawn=replace(s.spawn, angle_deg=round(rng.uniform(-40.0, 40.0), 1)))


def _mutate_spawn_offset(rng: random.Random, s: Scenario) -> Scenario:
    limit = s.geometry.width / 2.0 - 0.45
    if limit <= 0.05:
        raise ScenarioError("corridor too narrow for a spawn offset")
    offset = round(rng.choice([-1.0, 1.0]) * rng.uniform(0.05, limit), 2)
    return replace(s, spawn=replace(s.spawn, lateral_offset=offset))


def _mutate_sync(rng: random.Random, s: Scenario) -> Scenario:
    cycles = rng.choice([10_000_000, 20_000_000, 40_000_000, 100_000_000])
    return replace(s, cycles_per_sync=cycles)


def _mutate_reseed(rng: random.Random, s: Scenario) -> Scenario:
    return replace(s, seed=rng.randrange(2**32))


#: The mutator pool.  ``obstacle_add`` and the fault mutators appear
#: more than once: obstacles and wire faults are the cheapest route to
#: the crash / watchdog / crc-storm coverage frontier.
MUTATORS: tuple[tuple[str, Callable[[random.Random, Scenario], Scenario]], ...] = (
    ("geometry_length", _mutate_geometry_length),
    ("geometry_width", _mutate_geometry_width),
    ("geometry_amplitude", _mutate_geometry_amplitude),
    ("geometry_family", _mutate_geometry_family),
    ("sine_periods", _mutate_sine_periods),
    ("zigzag_segments", _mutate_zigzag_segments),
    ("obstacle_add", _mutate_obstacle_add),
    ("obstacle_add", _mutate_obstacle_add),
    ("obstacle_add", _mutate_obstacle_add),
    ("obstacle_move", _mutate_obstacle_move),
    ("obstacle_drop", _mutate_obstacle_drop),
    ("noise", _mutate_noise),
    ("fault_wire", _mutate_fault_wire),
    ("fault_wire", _mutate_fault_wire),
    ("fault_window", _mutate_fault_window),
    ("fault_drop", _mutate_fault_drop),
    ("velocity", _mutate_velocity),
    ("spawn_angle", _mutate_spawn_angle),
    ("spawn_offset", _mutate_spawn_offset),
    ("sync", _mutate_sync),
    ("reseed", _mutate_reseed),
)


def mutate(rng: random.Random, parent: Scenario, name: str) -> Scenario:
    """One feasible mutant of ``parent``, named ``name``.

    Draws a mutator, applies it, and *compiles* the result (the compile
    step runs every feasibility check).  Infeasible draws redraw up to
    :data:`_MUTATION_RETRIES` times; the reseed mutator — which cannot
    fail — is the terminal fallback, so this function always returns.
    """
    for _ in range(_MUTATION_RETRIES):
        _, mutator = rng.choice(MUTATORS)
        try:
            mutant = mutator(rng, parent).with_name(name)
            compile_config(mutant)
            return mutant
        except ScenarioError:
            continue
    return _mutate_reseed(rng, parent).with_name(name)


# ---------------------------------------------------------------------------
# The campaign
# ---------------------------------------------------------------------------
def _evaluate(
    scenarios: list[Scenario], settings: FuzzSettings
) -> list[MissionResult]:
    """Run scenarios through the sweep engine; results in task order."""
    tasks = [
        (s.name, compile_config(s, max_sim_time=settings.max_sim_time))
        for s in scenarios
    ]
    report = SweepRunner(workers=settings.workers).run(tasks)
    results: list[MissionResult] = []
    for outcome in report.outcomes:
        if outcome.result is None:  # pragma: no cover - supervised failure
            raise ConfigError(
                f"fuzz mission {outcome.name!r} failed to execute: {outcome.state}"
            )
        results.append(outcome.result)
    return results


def _write_canonical(path: Path, data: Any) -> None:
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def run_fuzz(settings: FuzzSettings, corpus_dir: Path) -> FuzzReport:
    """Run one fuzzing campaign, writing all artifacts under ``corpus_dir``."""
    rng = random.Random(settings.seed)
    corpus_dir = Path(corpus_dir)
    scenarios_dir = corpus_dir / "scenarios"
    minimized_dir = corpus_dir / "minimized"
    scenarios_dir.mkdir(parents=True, exist_ok=True)
    minimized_dir.mkdir(parents=True, exist_ok=True)

    coverage = CoverageMap()
    corpus: list[CorpusEntry] = []
    failures: dict[str, list[str]] = {}

    # Round 0: the legacy families seed the corpus and define the
    # baseline coverage the campaign must strictly exceed.
    seeds = [
        replace(scenario, name=f"seed-{name.replace('_', '-')}",
                max_sim_time=max(settings.max_sim_time, 1.0))
        for name, scenario in sorted(legacy_scenarios().items())
    ]
    seed_results = _evaluate(seeds, settings)
    for scenario, result in zip(seeds, seed_results):
        new_bins = coverage.observe(mission_features(scenario, result))
        corpus.append(
            CorpusEntry(
                key=scenario_key(scenario),
                scenario=scenario,
                signature=mission_signature(result),
                round=0,
                new_bins=new_bins,
                failure_modes=failure_modes(result),
            )
        )
    baseline_bins = len(coverage)

    evaluated = 0
    round_number = 0
    while evaluated < settings.budget:
        round_number += 1
        batch_size = min(settings.round_size, settings.budget - evaluated)
        mutants: list[Scenario] = []
        for index in range(batch_size):
            parent = rng.choice(corpus).scenario
            mutants.append(mutate(rng, parent, f"fz-{round_number}-{index}"))
        results = _evaluate(mutants, settings)
        evaluated += batch_size
        for scenario, result in zip(mutants, results):
            modes = failure_modes(result)
            new_bins = coverage.observe(mission_features(scenario, result))
            if not new_bins:
                continue
            entry = CorpusEntry(
                key=scenario_key(scenario),
                scenario=scenario,
                signature=mission_signature(result),
                round=round_number,
                new_bins=new_bins,
                failure_modes=modes,
            )
            corpus.append(entry)
            if modes:
                failures[entry.key] = list(modes)

    # Persist the corpus: documents, admission journal, coverage map.
    for entry in corpus:
        _write_canonical(scenarios_dir / f"{entry.key}.json", entry.scenario.to_dict())
    journal_lines = [
        json.dumps(entry.journal_dict(), sort_keys=True, separators=(",", ":"))
        for entry in corpus
    ]
    (corpus_dir / "corpus.jsonl").write_text("\n".join(journal_lines) + "\n")
    (corpus_dir / "coverage.json").write_text(coverage.to_json() + "\n")

    # Minimize the highest-priority discovered failure (mutants only —
    # the seeds are the baseline, not discoveries).
    report = FuzzReport(
        settings=settings,
        baseline_bins=baseline_bins,
        coverage_bins=len(coverage),
        evaluated=evaluated,
        admitted=len(corpus) - len(seeds),
        failures=failures,
    )
    target = _pick_minimization_target(corpus)
    if target is not None:
        entry, mode = target
        minimized, runs = minimize_scenario(entry.scenario, mode, settings)
        min_config = compile_config(minimized, max_sim_time=settings.max_sim_time)
        min_result = run_mission(min_config)
        _write_canonical(
            minimized_dir / f"{entry.key}.json",
            {
                "format": MINIMIZED_FORMAT,
                "source": entry.key,
                "failure_mode": mode,
                "runs": runs,
                "scenario": minimized.to_dict(),
                "scenario_key": scenario_key(minimized),
                "signature": mission_signature(min_result),
            },
        )
        report.minimized[entry.key] = scenario_key(minimized)

    _write_canonical(corpus_dir / "report.json", report.to_dict())
    return report


def _pick_minimization_target(
    corpus: list[CorpusEntry],
) -> tuple[CorpusEntry, str] | None:
    best: tuple[int, int, str, CorpusEntry, str] | None = None
    for entry in corpus:
        if entry.round == 0:
            continue
        for mode in entry.failure_modes:
            rank = (_MODE_PRIORITY.index(mode), entry.round, entry.key, entry, mode)
            if best is None or rank[:3] < best[:3]:
                best = rank
    if best is None:
        return None
    return best[3], best[4]


# ---------------------------------------------------------------------------
# Minimization and replay
# ---------------------------------------------------------------------------
def _exhibits(scenario: Scenario, mode: str, settings: FuzzSettings) -> bool:
    config = compile_config(scenario, max_sim_time=settings.max_sim_time)
    return mode in failure_modes(run_mission(config))


def _reduction_candidates(scenario: Scenario) -> list[Scenario]:
    """Simpler variants of ``scenario``, most aggressive first."""
    candidates: list[Scenario] = []
    if scenario.obstacles:
        candidates.append(replace(scenario, obstacles=()))
        for index in range(len(scenario.obstacles)):
            candidates.append(
                replace(
                    scenario,
                    obstacles=scenario.obstacles[:index]
                    + scenario.obstacles[index + 1 :],
                )
            )
    if scenario.faults is not None:
        candidates.append(replace(scenario, faults=None))
        if scenario.faults.rules and scenario.faults.scheduled:
            candidates.append(replace(scenario, faults=replace(scenario.faults, scheduled=())))
            candidates.append(replace(scenario, faults=replace(scenario.faults, rules=())))
    if not scenario.noise.is_identity:
        candidates.append(replace(scenario, noise=SensorNoiseProfile()))
    if scenario.spawn != SpawnSpec():
        candidates.append(replace(scenario, spawn=SpawnSpec()))
    if scenario.vehicle.target_velocity != 3.0:
        candidates.append(
            replace(scenario, vehicle=replace(scenario.vehicle, target_velocity=3.0))
        )
    if scenario.cycles_per_sync != 10_000_000:
        candidates.append(replace(scenario, cycles_per_sync=10_000_000))
    return candidates


def minimize_scenario(
    scenario: Scenario, mode: str, settings: FuzzSettings
) -> tuple[Scenario, int]:
    """Greedy deterministic reduction preserving failure ``mode``.

    Returns ``(minimal scenario, missions run)``.  Each pass tries the
    reduction candidates in a fixed order and restarts from the first
    one that still exhibits the failure; the loop ends at a fixpoint.
    """
    current = scenario.with_name(f"{scenario.name}-min"[-64:].lstrip("-_"))
    runs = 0
    progress = True
    while progress:
        progress = False
        for candidate in _reduction_candidates(current):
            try:
                compile_config(candidate)
            except ScenarioError:  # pragma: no cover - reductions stay valid
                continue
            runs += 1
            if _exhibits(candidate, mode, settings):
                current = candidate
                progress = True
                break
    return current, runs


def load_corpus_journal(corpus_dir: Path) -> list[dict[str, Any]]:
    """Parse ``corpus.jsonl`` (admission order preserved)."""
    path = Path(corpus_dir) / "corpus.jsonl"
    if not path.exists():
        raise ConfigError(f"no corpus journal at {path}")
    entries = []
    for line in path.read_text().splitlines():
        if line.strip():
            entries.append(json.loads(line))
    return entries


def load_scenario(corpus_dir: Path, key: str) -> Scenario:
    """Load one admitted scenario document by content key."""
    path = Path(corpus_dir) / "scenarios" / f"{key}.json"
    if not path.exists():
        raise ConfigError(f"no scenario {key!r} under {corpus_dir}")
    return Scenario.from_json(path.read_text())


def replay(corpus_dir: Path, key: str, settings: FuzzSettings) -> tuple[bool, str, str]:
    """Re-run one corpus scenario; ``(match, expected, actual)`` signatures.

    The expected signature comes from the admission journal; a mismatch
    means the simulation stack no longer reproduces the recorded
    behaviour (the same contract ``repro verify`` enforces for goldens).
    """
    journal = load_corpus_journal(corpus_dir)
    expected = next((e["signature"] for e in journal if e["key"] == key), None)
    if expected is None:
        raise ConfigError(f"scenario {key!r} is not in the corpus journal")
    scenario = load_scenario(corpus_dir, key)
    config = compile_config(scenario, max_sim_time=settings.max_sim_time)
    actual = mission_signature(run_mission(config))
    return actual == expected, expected, actual


def scenario_config(scenario: Scenario) -> CoSimConfig:
    """Convenience: the full-budget configuration of a scenario."""
    return compile_config(scenario)
