"""Which missions may share a batch, and how they group.

The batched engine vectorizes the environment side of the co-simulation;
everything that crosses the RPC boundary (SoC, app, observability) runs
unchanged per lane.  That puts two kinds of constraints on batching:

* *Eligibility* — configurations whose environment the kernels model.
  The quadrotor + DNN-controller path is vectorized; MPC/SLAM/fusion
  controllers, the car vehicle, fault injection, background tenants and
  non-in-process transports fall back to the serial runner (bit-identical
  results either way, so the fallback is purely a throughput decision).
* *Grouping* — lanes advance in lockstep, so the world geometry and the
  synchronization schedule (frames per sync, frame rate) must agree
  across a group.  Seed, model, SoC, initial angle, target velocity and
  ``max_sim_time`` may all vary per lane; differing ``max_sim_time`` is
  what exercises ragged termination.
"""

from __future__ import annotations

import json

from repro.core.config import CoSimConfig


class BatchIneligible(Exception):
    """A lane needs something the batched engine does not vectorize.

    Raised before a batched run when a config fails the
    :func:`batch_eligible` screen or the configs span batch groups, and
    during one only when a lane's synchronizer does not ask for exactly
    the one environment advance per round that the batch makes.
    :class:`~repro.sweep.runner.SweepRunner` then runs the chunk
    serially, uncharged and not counted as batched.
    """


def batch_eligible(config: CoSimConfig) -> tuple[bool, str]:
    """``(eligible, reason)`` — may this mission run on the batched engine?"""
    if config.vehicle != "quadrotor":
        return False, f"vehicle {config.vehicle!r} is not vectorized"
    if config.controller != "dnn":
        return False, f"controller {config.controller!r} is not vectorized"
    if config.dynamic_runtime:
        return False, "dynamic runtime switches models mid-flight"
    if config.background is not None:
        return False, f"background workload {config.background!r}"
    if config.faults is not None:
        return False, "fault injection perturbs the per-lane link"
    if config.transport != "inprocess":
        return False, f"transport {config.transport!r} is not in-process"
    if config.world == "scenario":
        return False, "scenario-compiled worlds (obstacles) are not vectorized"
    if config.noise is not None:
        return False, "scenario sensor-noise profiles are not vectorized"
    if config.initial_lateral_offset != 0.0:
        return False, "off-center spawn is not vectorized"
    return True, ""


def batch_group_key(config: CoSimConfig) -> str:
    """Lockstep-compatibility key: lanes with equal keys may share a batch.

    The key covers exactly what the vectorized kernels share across the
    batch: the world (hence walls/centerline arrays), the synchronization
    schedule, and the vehicle model.
    """
    try:
        world_params = sorted(config.world_params.items())
        json.dumps(world_params)
    except TypeError:
        # Unhashable/unserializable world params: key on identity-free
        # repr so equal-looking configs still group, odd ones stay alone.
        world_params = repr(sorted(config.world_params.items(), key=repr))
    return json.dumps(
        {
            "world": config.world,
            "world_params": world_params,
            "vehicle": config.vehicle,
            "cycles_per_sync": config.sync.cycles_per_sync,
            "soc_frequency_hz": config.sync.soc_frequency_hz,
            "frame_rate_hz": config.sync.frame_rate_hz,
        },
        sort_keys=True,
        default=str,
    )
