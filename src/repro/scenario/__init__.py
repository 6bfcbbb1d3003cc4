"""Declarative scenario descriptions, generation, coverage and fuzzing.

The paper evaluates its robotics SoCs over two hand-built procedural
environments.  This package widens that axis: :mod:`~repro.scenario.schema`
defines the versioned ``rose-scenario/1`` document (geometry family,
obstacles, spawn, sensor noise, fault plan, vehicle/software stack),
:mod:`~repro.scenario.generate` compiles documents into the existing
:class:`~repro.core.config.CoSimConfig` machinery (bit-identical to the
legacy families where they overlap), :mod:`~repro.scenario.coverage`
bins mission outcomes into a deterministic coverage map, and
:mod:`~repro.scenario.fuzz` runs the seeded coverage-guided mutation
loop on top of :class:`~repro.sweep.runner.SweepRunner`.

Determinism is load-bearing everywhere: all randomness flows through an
injected, seeded :class:`random.Random` (lint rule DET001 forbids the
module-level ``random.*`` / ``np.random.*`` APIs and unseeded
generators), so
the same seed and budget reproduce the same corpus, coverage map and
minimized reproducers byte for byte.
"""

from repro.scenario.coverage import CoverageMap, mission_features
from repro.scenario.generate import compile_config, world_from_scenario, world_from_spec
from repro.scenario.schema import (
    SCENARIO_FORMAT,
    GeometrySpec,
    ObstacleSpec,
    Scenario,
    SpawnSpec,
    VehicleSpec,
    legacy_scenarios,
    scenario_key,
)

__all__ = [
    "SCENARIO_FORMAT",
    "CoverageMap",
    "GeometrySpec",
    "ObstacleSpec",
    "Scenario",
    "SpawnSpec",
    "VehicleSpec",
    "compile_config",
    "legacy_scenarios",
    "mission_features",
    "scenario_key",
    "world_from_scenario",
    "world_from_spec",
]
