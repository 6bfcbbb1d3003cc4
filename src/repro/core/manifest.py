"""Experiment manifests: (de)serialize configurations to JSON.

The artifact drives its experiments from declarative run configurations
(``deploy/hephaestus/runner.py`` flags); this module provides the same
capability for this repo: a :class:`CoSimConfig` round-trips through a
JSON document, so experiment sweeps can be checked into version control
and replayed bit-identically (configs are deterministic given their
seed).
"""

from __future__ import annotations

import copy
import json
from typing import Any

from repro.core.config import CoSimConfig, SyncConfig
from repro.core.faults import FaultPlan
from repro.env.sensors import SensorNoiseProfile
from repro.errors import ConfigError

MANIFEST_FORMAT = "rose-repro-manifest/1"


def config_to_dict(config: CoSimConfig) -> dict[str, Any]:
    """Plain-dict form of a configuration (JSON-safe).

    Every :class:`CoSimConfig` field, in declaration order: the dict
    ``dataclasses.asdict`` would give, without its recursive copy.  Only
    ``world_params`` is mutable, so only it is copied.
    """
    data: dict[str, Any] = {
        "world": config.world,
        "vehicle": config.vehicle,
        "soc": config.soc,
        "controller": config.controller,
        "model": config.model,
        "target_velocity": config.target_velocity,
        "initial_angle_deg": config.initial_angle_deg,
        "initial_lateral_offset": config.initial_lateral_offset,
        "sync": {
            "cycles_per_sync": config.sync.cycles_per_sync,
            "soc_frequency_hz": config.sync.soc_frequency_hz,
            "frame_rate_hz": config.sync.frame_rate_hz,
            "sync_done_timeout_s": config.sync.sync_done_timeout_s,
            "recv_timeout_s": config.sync.recv_timeout_s,
            "regrant_timeout_s": config.sync.regrant_timeout_s,
            "max_regrants": config.sync.max_regrants,
        },
        "max_sim_time": config.max_sim_time,
        "dynamic_runtime": config.dynamic_runtime,
        "argmax_policy": config.argmax_policy,
        "fusion_camera_every": config.fusion_camera_every,
        "background": config.background,
        "gemmini_dtype": config.gemmini_dtype,
        "beta_lateral": config.beta_lateral,
        "beta_angular": config.beta_angular,
        "world_params": copy.deepcopy(config.world_params),
        "seed": config.seed,
        "transport": config.transport,
        # The plan serializes itself, with packet types by name.
        "faults": config.faults.to_dict() if config.faults is not None else None,
        "noise": config.noise.to_dict() if config.noise is not None else None,
        "sensor_timeout_syncs": config.sensor_timeout_syncs,
        "sensor_retries": config.sensor_retries,
        "check_invariants": config.check_invariants,
    }
    # The scenario fields entered the config after thousands of cache
    # entries and ten golden records were keyed without them: at their
    # defaults (no profile, centered spawn) they are omitted so every
    # pre-scenario config keeps its exact serialized form — and with it
    # its config_key.  Non-default values always serialize, so two
    # configs differing in either field never share a key.
    if config.noise is None:
        del data["noise"]
    if config.initial_lateral_offset == 0.0:
        del data["initial_lateral_offset"]
    return data


def config_from_dict(data: dict[str, Any]) -> CoSimConfig:
    """Inverse of :func:`config_to_dict` (validates via the dataclasses)."""
    data = dict(data)
    sync_data = data.pop("sync", None)
    sync = SyncConfig(**sync_data) if sync_data else SyncConfig()
    faults_data = data.pop("faults", None)
    faults = FaultPlan.from_dict(faults_data) if faults_data else None
    noise_data = data.pop("noise", None)
    try:
        noise = SensorNoiseProfile.from_dict(noise_data) if noise_data else None
    except ValueError as exc:
        raise ConfigError(f"invalid noise profile: {exc}") from exc
    try:
        return CoSimConfig(sync=sync, faults=faults, noise=noise, **data)
    except TypeError as exc:
        raise ConfigError(f"invalid configuration fields: {exc}") from exc


def dump_manifest(configs: dict[str, CoSimConfig]) -> str:
    """Serialize a named set of experiment configurations."""
    return json.dumps(
        {
            "format": MANIFEST_FORMAT,
            "experiments": {
                name: config_to_dict(config) for name, config in configs.items()
            },
        },
        indent=2,
        sort_keys=True,
    )


def load_manifest(text: str) -> dict[str, CoSimConfig]:
    """Parse a manifest back into configurations."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid manifest JSON: {exc}") from exc
    if data.get("format") != MANIFEST_FORMAT:
        raise ConfigError(f"unsupported manifest format {data.get('format')!r}")
    return {
        name: config_from_dict(fields)
        for name, fields in data.get("experiments", {}).items()
    }
