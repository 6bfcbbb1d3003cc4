"""Bit-identity signatures for mission results.

:func:`mission_signature` digests everything a result *means* — scalar
metrics, the full trajectory, the synchronizer's per-step op stream, and
the sync counters — while excluding host-side observations (wall-clock
``stage_timings``) that legitimately differ between runs.  Two results
with equal signatures are interchangeable for every figure and table.

This is the contract the sweep engine is tested against: serial,
parallel, and cache-hit executions of the same config must produce equal
signatures.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Iterable
from operator import attrgetter
from typing import Any, Callable

from repro.core.cosim import MissionResult


def _num(value: float | None) -> str:
    """Canonical text for a number: ``repr`` round-trips floats exactly."""
    if value is None:
        return "None"
    return repr(float(value))


#: Column names for the nested list rows of :func:`canonical_payload` —
#: the conformance diff reports translate list indices through these.
TRAJECTORY_FIELDS = ("time", "x", "y", "z", "yaw", "speed", "s", "d")

_sample_values: Callable[[Any], tuple[Any, ...]] = attrgetter(*TRAJECTORY_FIELDS)


class _FloatTexts(dict[float, str]):
    """:func:`_num` of many values, with the ``repr`` of each distinct
    non-zero float computed once.

    A float's ``repr`` is most of a payload's cost, and a mission repeats
    its values: the op stream logs the trajectory's poses again, and
    altitude and targets hold steady between commands.  Only a value of
    type exactly ``float`` that is neither zero nor NaN is looked up:
    ``0.0`` and ``-0.0`` are one key with two texts, NaN equals nothing,
    and any other type (``np.float64``, ``int``, ``bool``, ``None``)
    takes :func:`_num` as it is.  One instance serves one payload.
    """

    def __missing__(self, value: float) -> str:
        text = self[value] = repr(value)
        return text

    def numbers(self, values: Iterable[Any]) -> list[str]:
        """:func:`_num` of every value."""
        return [
            self[v] if type(v) is float and v and v == v else _num(v)
            for v in values
        ]

    def floats(self, values: Iterable[Any]) -> list[Any]:
        """:func:`_num` of every float value; other values as they are."""
        return [
            self[v]
            if type(v) is float and v and v == v
            else _num(v) if isinstance(v, float) else v
            for v in values
        ]


def canonical_payload(result: MissionResult) -> dict[str, Any]:
    texts = _FloatTexts()
    payload: dict[str, Any] = {
        "completed": bool(result.completed),
        "mission_time": _num(result.mission_time),
        "failure_reason": result.failure_reason,
        "sim_time": _num(result.sim_time),
        "collisions": int(result.collisions),
        "progress": _num(result.progress),
        "average_velocity": _num(result.average_velocity),
        "activity_factor": _num(result.activity_factor),
        "soc_cycles": int(result.soc_cycles),
        "gemmini_busy_cycles": int(result.gemmini_busy_cycles),
        "inference_count": int(result.inference_count),
        "mean_inference_latency_ms": _num(result.mean_inference_latency_ms),
        "trajectory": [
            texts.numbers(_sample_values(p)) for p in result.trajectory
        ],
    }
    if result.logger is not None:
        # A row is a tuple in column order (``SyncLogRow``).
        payload["op_stream"] = [texts.floats(row) for row in result.logger.rows]
    stats = result.sync_stats
    if stats is not None:
        payload["sync_stats"] = {
            "steps": stats.steps,
            "packets_from_rtl": stats.packets_from_rtl,
            "packets_to_rtl": stats.packets_to_rtl,
            "camera_requests": stats.camera_requests,
            "imu_requests": stats.imu_requests,
            "depth_requests": stats.depth_requests,
            "lidar_requests": stats.lidar_requests,
            "state_requests": stats.state_requests,
            "target_commands": stats.target_commands,
            "last_target": texts.numbers(stats.last_target),
            "camera_request_times": texts.numbers(stats.camera_request_times),
            "faults": stats.fault_summary(),
        }
    return payload


def mission_signature(result: MissionResult) -> str:
    """Content hash of a result's simulated behaviour (never wall time)."""
    payload = json.dumps(
        canonical_payload(result), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(payload.encode()).hexdigest()
