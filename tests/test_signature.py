"""Per-mission bookkeeping: signatures, record pickles, config dicts.

Each is checked against a plain reference kept here:

* ``canonical_payload`` against one ``_num`` call per value (its memo of
  float texts must not merge ``0.0`` with ``-0.0``);
* the positional pickles of ``TrajectorySample``, ``SyncLogRow`` (a
  tuple) and ``InferenceRecord`` (equal after a round trip, same types,
  same float bits, and no field names in the pickle);
* ``config_to_dict`` against the ``dataclasses.asdict`` form.
"""

from __future__ import annotations

import copy
import copyreg
import json
import math
import pickle
import struct
from dataclasses import asdict, fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.app.controller import InferenceRecord
from repro.core.config import CoSimConfig, SyncConfig
from repro.core.cosim import MissionResult, run_mission
from repro.core.csvlog import SyncLogger, SyncLogRow
from repro.core.faults import FaultPlan, FaultRule, ScheduledFault
from repro.core.manifest import config_from_dict, config_to_dict
from repro.core.packets import PacketType
from repro.core.synchronizer import SyncStats
from repro.env.sensors import SensorNoiseProfile
from repro.env.simulator import TrajectorySample
from repro.scenario import compile_config, legacy_scenarios
from repro.sweep.fingerprint import config_key
from repro.sweep.signature import canonical_payload, mission_signature
from repro.verify.golden import DEFAULT_GOLDEN_DIR


# ---------------------------------------------------------------------------
# References the program must reproduce exactly
# ---------------------------------------------------------------------------
def _ref_num(value):
    if value is None:
        return "None"
    return repr(float(value))


def _reference_payload(result: MissionResult) -> dict:
    """``canonical_payload`` as one ``_num`` call per value."""
    payload = {
        "completed": bool(result.completed),
        "mission_time": _ref_num(result.mission_time),
        "failure_reason": result.failure_reason,
        "sim_time": _ref_num(result.sim_time),
        "collisions": int(result.collisions),
        "progress": _ref_num(result.progress),
        "average_velocity": _ref_num(result.average_velocity),
        "activity_factor": _ref_num(result.activity_factor),
        "soc_cycles": int(result.soc_cycles),
        "gemmini_busy_cycles": int(result.gemmini_busy_cycles),
        "inference_count": int(result.inference_count),
        "mean_inference_latency_ms": _ref_num(result.mean_inference_latency_ms),
        "trajectory": [
            [_ref_num(v) for v in (p.time, p.x, p.y, p.z, p.yaw, p.speed, p.s, p.d)]
            for p in result.trajectory
        ],
    }
    if result.logger is not None:
        payload["op_stream"] = [
            [
                _ref_num(v) if isinstance(v, float) else v
                for v in (getattr(row, name) for name in SyncLogRow.FIELDS)
            ]
            for row in result.logger.rows
        ]
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
            "last_target": [_ref_num(v) for v in stats.last_target],
            "camera_request_times": [_ref_num(t) for t in stats.camera_request_times],
            "faults": stats.fault_summary(),
        }
    return payload


def _reference_config_dict(config: CoSimConfig) -> dict:
    """``config_to_dict`` through ``dataclasses.asdict``."""
    data = asdict(config)
    data["sync"] = {
        "cycles_per_sync": config.sync.cycles_per_sync,
        "soc_frequency_hz": config.sync.soc_frequency_hz,
        "frame_rate_hz": config.sync.frame_rate_hz,
        "sync_done_timeout_s": config.sync.sync_done_timeout_s,
        "recv_timeout_s": config.sync.recv_timeout_s,
        "regrant_timeout_s": config.sync.regrant_timeout_s,
        "max_regrants": config.sync.max_regrants,
    }
    data["faults"] = config.faults.to_dict() if config.faults is not None else None
    if config.noise is None:
        del data["noise"]
    else:
        data["noise"] = config.noise.to_dict()
    if config.initial_lateral_offset == 0.0:
        del data["initial_lateral_offset"]
    return data


def _assert_same_payload(result: MissionResult) -> None:
    got = canonical_payload(result)
    want = _reference_payload(result)
    assert got == want
    # Equal as JSON text too: the signature hashes this exact string.
    assert json.dumps(got, sort_keys=True, separators=(",", ":")) == json.dumps(
        want, sort_keys=True, separators=(",", ":")
    )


def _bits(value):
    """A value's type and, for floats, its exact IEEE bits."""
    if isinstance(value, float):
        return (type(value), struct.pack("<d", value), float.hex(float(value)))
    return (type(value), value)


# ---------------------------------------------------------------------------
# canonical_payload
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def short_mission() -> MissionResult:
    return run_mission(CoSimConfig(world="tunnel", max_sim_time=1.0))


@pytest.fixture(scope="module")
def faulted_mission() -> MissionResult:
    plan = FaultPlan(
        seed=3,
        rules=(FaultRule(ptype=PacketType.CAMERA_RESP, drop=0.3),),
        scheduled=(ScheduledFault(kind="stuck_imu", start_step=5, end_step=40),),
    )
    return run_mission(
        CoSimConfig(world="tunnel", controller="fusion", model="resnet6",
                    max_sim_time=1.0, faults=plan)
    )


class TestCanonicalPayload:
    def test_real_missions_match_reference(self, short_mission, faulted_mission):
        for result in (short_mission, faulted_mission):
            _assert_same_payload(result)

    def test_sshape_mission_matches_reference(self):
        result = run_mission(
            CoSimConfig(world="s-shape", target_velocity=9.0, max_sim_time=1.5, seed=2)
        )
        _assert_same_payload(result)

    def test_positive_and_negative_zero_keep_their_texts(self, short_mission):
        samples = [
            TrajectorySample(0.0, -0.0, 0.0, -0.0, 1.5, -1.5, 0.0, -0.0),
            TrajectorySample(-0.0, 0.0, -0.0, 0.0, -1.5, 1.5, -0.0, 0.0),
        ]
        row = SyncLogRow(0, -0.0, 0.0, -0.0, 0.0, 2.5, 2.5, -0.0, 0.0,
                         0, 0, 0, 0, 0.0, -0.0, 0.0)
        result = replace(
            short_mission,
            trajectory=samples,
            logger=SyncLogger(rows=[row, row._replace(sim_time=0.0, x=-0.0)]),
        )
        payload = canonical_payload(result)
        assert payload["trajectory"] == [
            ["0.0", "-0.0", "0.0", "-0.0", "1.5", "-1.5", "0.0", "-0.0"],
            ["-0.0", "0.0", "-0.0", "0.0", "-1.5", "1.5", "-0.0", "0.0"],
        ]
        assert payload["op_stream"][0][1:4] == ["-0.0", "0.0", "-0.0"]
        assert payload["op_stream"][1][1:3] == ["0.0", "-0.0"]
        _assert_same_payload(result)

    def test_non_float_types_keep_their_num_text(self, short_mission):
        # np.float64, int, bool and None in float columns; an int equal to
        # a float already seen must still print as the reference does.
        sample = TrajectorySample(1.0, 1, True, np.float64(1.0), None, 2.5, np.float64(-0.0), 0)
        row = SyncLogRow(1, 1.0, np.float64(1.0), 1, True, None, 0, 2.5,
                         np.float64(2.5), 0, 1, 2, 3, 1.0, 1, False)
        result = replace(short_mission, trajectory=[sample], logger=SyncLogger(rows=[row]))
        payload = canonical_payload(result)
        assert payload["trajectory"] == [
            ["1.0", "1.0", "1.0", "1.0", "None", "2.5", "-0.0", "0.0"]
        ]
        assert payload["op_stream"][0][:9] == [1, "1.0", "1.0", 1, True, None, 0, "2.5", "2.5"]
        _assert_same_payload(result)

    def test_cache_round_trip_keeps_the_signature(self, short_mission):
        loaded = pickle.loads(pickle.dumps(short_mission, protocol=pickle.HIGHEST_PROTOCOL))
        assert canonical_payload(loaded) == canonical_payload(short_mission)
        assert mission_signature(loaded) == mission_signature(short_mission)

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_generated_rows_match_reference(self, short_mission, data):
        result = replace(
            short_mission,
            trajectory=data.draw(st.lists(_samples(), max_size=12)),
            logger=SyncLogger(rows=data.draw(st.lists(_rows(), max_size=12))),
            sync_stats=SyncStats(
                last_target=tuple(data.draw(st.lists(_float_cell(), min_size=4, max_size=4))),
                camera_request_times=data.draw(st.lists(_float_cell(), max_size=6)),
            ),
        )
        _assert_same_payload(result)


#: Values a float column can hold: repeated and distinct floats, both
#: zeros, NaN, infinities, subnormals, and the other types ``_num`` takes.
_REPEATS = (0.0, -0.0, 1.5, -1.5, 3.0, 1e-310, -1e-310, math.inf, -math.inf)


def _float_cell():
    return st.one_of(
        st.sampled_from(_REPEATS),
        st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
        st.floats(allow_nan=False).map(np.float64),
        st.just(float("nan")),
        st.integers(-(2**60), 2**60),
        st.booleans(),
        st.none(),
    )


def _samples():
    return st.builds(TrajectorySample, *([_float_cell()] * 8))


def _rows():
    cell = _float_cell()
    count = st.integers(0, 1000)
    return st.builds(
        SyncLogRow,
        count, cell, cell, cell, cell, cell, cell, cell, cell,
        count, count, count, count, cell, cell, cell,
        st.one_of(count, cell), st.one_of(count, cell), count,
    )


# ---------------------------------------------------------------------------
# Positional record pickles
# ---------------------------------------------------------------------------
_NAN_WITH_PAYLOAD = struct.unpack("<d", struct.pack("<Q", 0x7FF8_0000_0000_1234))[0]

_RECORDS = [
    TrajectorySample(0.01, -0.0, 1.25, 2.0, _NAN_WITH_PAYLOAD, math.inf, 5e-324, -7.5),
    TrajectorySample(1.0, np.float64(2.5), 3, -math.inf, 0.0, 1e300, -0.0, 0.1),
    SyncLogRow(7, 0.07, -0.0, 1.5, 2.0, _NAN_WITH_PAYLOAD, 3.25, 10.5, -0.0,
               2, 3, 4, 5, 3.0, -0.0, np.float64(0.25), 1, 2, 3),
    SyncLogRow(0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0, 0, 0, 0, 0.0, 0.0, 0.0),
    InferenceRecord(request_cycle=100, response_cycle=350, model="resnet14"),
]


def _field_names(record) -> tuple[str, ...]:
    """A record's fields in declaration order: the row's columns, or the
    dataclass fields of the others."""
    if isinstance(record, SyncLogRow):
        return SyncLogRow.FIELDS
    return tuple(f.name for f in fields(record))


class TestRecordPickles:
    @pytest.mark.parametrize("record", _RECORDS, ids=lambda r: type(r).__name__)
    def test_round_trips_keep_values_types_and_bits(self, record):
        names = _field_names(record)
        for twin in (
            pickle.loads(pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL)),
            pickle.loads(pickle.dumps(record, protocol=2)),
            copy.deepcopy(record),
            copy.copy(record),
        ):
            assert type(twin) is type(record)
            assert [_bits(getattr(twin, n)) for n in names] == [
                _bits(getattr(record, n)) for n in names
            ]
            has_nan = any(
                isinstance(getattr(record, n), float) and math.isnan(getattr(record, n))
                for n in names
            )
            if not has_nan:
                assert twin == record

    @pytest.mark.parametrize("record", _RECORDS, ids=lambda r: type(r).__name__)
    def test_reduce_lists_every_field_in_declaration_order(self, record):
        reduced = record.__reduce_ex__(pickle.HIGHEST_PROTOCOL)
        if isinstance(record, tuple):
            # A tuple row loads as ``cls.__new__(cls, *values)``, with no
            # per-instance state.
            factory, (cls, *args), *state = reduced
            assert factory is copyreg.__newobj__
            assert all(part is None for part in state)
            args = tuple(args)
        else:
            cls, args = reduced
        assert cls is type(record)
        assert args == tuple(getattr(record, name) for name in _field_names(record))

    def test_log_row_fields_are_the_declaration_order(self):
        assert SyncLogRow.FIELDS == SyncLogRow._fields
        positions = range(len(SyncLogRow.FIELDS))
        row = SyncLogRow(*positions)
        assert [getattr(row, name) for name in SyncLogRow.FIELDS] == list(positions)

    def test_pickled_rows_hold_no_field_names(self, short_mission):
        rows = pickle.dumps(short_mission.logger.rows, protocol=pickle.HIGHEST_PROTOCOL)
        for name in SyncLogRow.FIELDS:
            if len(name) > 3:
                assert name.encode() not in rows, name
        samples = pickle.dumps(short_mission.trajectory, protocol=pickle.HIGHEST_PROTOCOL)
        for name in ("time", "speed"):
            assert name.encode() not in samples, name
        records = pickle.dumps(_RECORDS[-1:] * 3, protocol=pickle.HIGHEST_PROTOCOL)
        for name in ("request_cycle", "response_cycle"):
            assert name.encode() not in records, name


# ---------------------------------------------------------------------------
# config_to_dict
# ---------------------------------------------------------------------------
def _configs() -> dict[str, CoSimConfig]:
    tunnel = legacy_scenarios()["tunnel"]
    native = compile_config(tunnel, max_sim_time=1.5)
    return {
        "default": CoSimConfig(),
        "faulted": CoSimConfig(
            faults=FaultPlan(
                seed=4,
                rules=(
                    FaultRule(ptype=PacketType.CAMERA_RESP, drop=0.25, delay=0.1,
                              delay_steps=2),
                    FaultRule(ptype=PacketType.TARGET_CMD, corrupt=0.5),
                ),
                scheduled=(
                    ScheduledFault(kind="drop", start_step=3, end_step=9,
                                   ptype=PacketType.IMU_RESP),
                    ScheduledFault(kind="camera_blackout", start_step=10, end_step=20),
                ),
            )
        ),
        "noisy": CoSimConfig(noise=SensorNoiseProfile(imu_scale=2.0, lidar_scale=0.5)),
        "nested-world": replace(
            native,
            world="scenario",
            world_params={
                "spec": {"geometry": tunnel.geometry.to_dict(), "obstacles": []}
            },
        ),
        "offset": CoSimConfig(initial_lateral_offset=-0.75, seed=9,
                              sync=SyncConfig(cycles_per_sync=40_000_000)),
        "negative-zero-offset": CoSimConfig(initial_lateral_offset=-0.0),
        "knobs": CoSimConfig(controller="fusion", model="resnet6", beta_lateral=1.5,
                             beta_angular=2, check_invariants=False, background=None,
                             gemmini_dtype="int8", world_params={"length": 80.0}),
    }


def _golden_configs() -> dict[str, CoSimConfig]:
    return {
        path.stem: config_from_dict(json.loads(path.read_text())["config"])
        for path in sorted(DEFAULT_GOLDEN_DIR.glob("*.json"))
    }


class TestConfigToDict:
    @pytest.mark.parametrize("name", sorted(_configs()))
    def test_matches_asdict_reference(self, name):
        config = _configs()[name]
        got = config_to_dict(config)
        want = _reference_config_dict(config)
        assert got == want
        # Same key order at every level, so manifests read the same.
        assert json.dumps(got) == json.dumps(want)

    def test_golden_configs_match_reference_and_record(self):
        golden = _golden_configs()
        assert golden, "no golden records found"
        for name, config in golden.items():
            got = config_to_dict(config)
            assert json.dumps(got) == json.dumps(_reference_config_dict(config)), name
            record = json.loads((DEFAULT_GOLDEN_DIR / f"{name}.json").read_text())
            assert json.loads(json.dumps(got)) == record["config"], name

    def test_config_key_unchanged_by_round_trip(self):
        for config in _configs().values():
            assert config_key(config_from_dict(config_to_dict(config))) == config_key(config)

    def test_mutating_the_result_leaves_the_config(self):
        config = _configs()["nested-world"]
        before = copy.deepcopy(config.world_params)
        data = config_to_dict(config)
        data["world_params"]["spec"]["obstacles"].append({"x": 1.0})
        data["world_params"]["spec"]["geometry"].clear()
        data["world_params"]["extra"] = 1
        data["sync"]["cycles_per_sync"] = 1
        assert config.world_params == before
        assert config.sync.cycles_per_sync == SyncConfig().cycles_per_sync
