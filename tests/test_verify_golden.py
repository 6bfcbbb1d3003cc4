"""Tests for the golden-trace corpus (repro.verify.golden)."""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.core.config import CoSimConfig
from repro.core.cosim import run_mission
from repro.verify import (
    DEFAULT_GOLDEN_DIR,
    GoldenRecord,
    check_corpus,
    golden_missions,
    record_corpus,
    record_mission,
)
from repro.verify import golden


def _tiny_missions() -> dict[str, CoSimConfig]:
    return {
        "unit-a": CoSimConfig(world="tunnel", model="resnet6", max_sim_time=1.0),
        "unit-b": CoSimConfig(
            world="tunnel", model="resnet6", max_sim_time=1.0, seed=1
        ),
    }


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    """A recorded two-mission corpus shared across this module's tests."""
    root = tmp_path_factory.mktemp("golden")
    report = record_corpus(root, missions=_tiny_missions())
    assert report.ok
    return root


class TestRecordCheckRoundTrip:
    def test_check_after_record_passes(self, corpus_dir):
        report = check_corpus(corpus_dir, missions=_tiny_missions())
        assert report.ok
        assert [c.name for c in report.checks] == ["unit-a", "unit-b"]

    def test_record_is_valid_json_with_format_stamp(self, corpus_dir):
        data = json.loads((corpus_dir / "unit-a.json").read_text())
        assert data["format"] == "rose-golden/1"
        assert data["signature"]
        assert data["metrics"]["sim_time"]
        assert data["payload"]["op_stream"]

    def test_rerecord_identical_behaviour_reports_ok(self, corpus_dir):
        report = record_corpus(corpus_dir, missions=_tiny_missions())
        assert report.ok
        assert all(check.status == "ok" for check in report.checks)

    def test_only_filter_restricts_missions(self, corpus_dir):
        report = check_corpus(corpus_dir, missions=_tiny_missions(), only="unit-a")
        assert [check.name for check in report.checks] == ["unit-a"]


class TestDriftDetection:
    def test_payload_drift_names_step_and_field(self, corpus_dir, tmp_path):
        # Copy the corpus and perturb one op-stream cell of one record.
        work = tmp_path / "drifted"
        work.mkdir()
        for path in corpus_dir.glob("*.json"):
            (work / path.name).write_text(path.read_text())
        record_path = work / "unit-a.json"
        data = json.loads(record_path.read_text())
        # Simulate recorded-then-drifted behaviour: the stored payload and
        # signature reflect a run whose step 3 differed from today's.
        data["payload"]["op_stream"][3][0] = "999999"
        data["signature"] = "0" * 64
        record_path.write_text(json.dumps(data))

        report = check_corpus(work, missions=_tiny_missions())
        assert not report.ok
        (failure,) = report.failures
        assert failure.status == "drift"
        assert failure.divergence is not None
        assert failure.divergence.step == 3
        assert "op_stream" in failure.divergence.field
        assert "step 3" in failure.divergence.describe()

    def test_config_drift_flagged_without_running(self, corpus_dir):
        drifted = _tiny_missions()
        drifted["unit-a"] = replace(drifted["unit-a"], target_velocity=4.0)
        report = check_corpus(corpus_dir, missions=drifted)
        failure = next(c for c in report.checks if c.name == "unit-a")
        assert failure.status == "config-drift"
        assert "target_velocity" in failure.divergence.field

    def test_missing_record_flagged(self, corpus_dir):
        missions = _tiny_missions()
        missions["unit-c"] = CoSimConfig(
            world="tunnel", model="resnet6", max_sim_time=1.0, seed=2
        )
        report = check_corpus(corpus_dir, missions=missions)
        missing = next(c for c in report.checks if c.name == "unit-c")
        assert missing.status == "missing"

    def test_stale_record_flagged(self, corpus_dir, tmp_path):
        work = tmp_path / "stale"
        work.mkdir()
        for path in corpus_dir.glob("*.json"):
            (work / path.name).write_text(path.read_text())
        (work / "gone-mission.json").write_text(
            (corpus_dir / "unit-a.json").read_text()
        )
        report = check_corpus(work, missions=_tiny_missions())
        stale = next(c for c in report.checks if c.name == "gone-mission")
        assert stale.status == "stale"

    def test_unreadable_record_flagged(self, corpus_dir, tmp_path):
        work = tmp_path / "broken"
        work.mkdir()
        for path in corpus_dir.glob("*.json"):
            (work / path.name).write_text(path.read_text())
        (work / "unit-a.json").write_text("{not json")
        report = check_corpus(work, missions=_tiny_missions())
        broken = next(c for c in report.checks if c.name == "unit-a")
        assert broken.status == "drift"
        assert "unreadable" in broken.detail

    def test_wrong_format_rejected(self):
        with pytest.raises(ValueError, match="unsupported golden format"):
            GoldenRecord.from_json('{"format": "rose-golden/999"}')

    def test_obs_drift_flagged_even_when_signature_matches(self, corpus_dir, tmp_path):
        # Telemetry drift with an unchanged canonical payload: the
        # signature still matches, so only the obs comparison can catch it.
        work = tmp_path / "obs-drifted"
        work.mkdir()
        for path in corpus_dir.glob("*.json"):
            (work / path.name).write_text(path.read_text())
        record_path = work / "unit-a.json"
        data = json.loads(record_path.read_text())
        steps = data["obs"]["rose_sync_steps_total"]["series"][0]
        steps["value"] += 1
        record_path.write_text(json.dumps(data))

        report = check_corpus(work, missions=_tiny_missions())
        failure = next(c for c in report.checks if c.name == "unit-a")
        assert failure.status == "drift"
        assert "obs" in failure.detail
        assert "rose_sync_steps_total" in failure.divergence.field

    def test_record_without_obs_snapshot_refused(self, corpus_dir, tmp_path):
        # A record with no obs key could not catch telemetry drift, so
        # loading it fails and the check reports the record unreadable.
        data = json.loads((corpus_dir / "unit-a.json").read_text())
        data.pop("obs")
        with pytest.raises(ValueError, match="no obs snapshot"):
            GoldenRecord.from_json(json.dumps(data))
        work = tmp_path / "no-obs"
        work.mkdir()
        for path in corpus_dir.glob("*.json"):
            (work / path.name).write_text(path.read_text())
        (work / "unit-a.json").write_text(json.dumps(data))
        report = check_corpus(work, missions=_tiny_missions())
        failure = next(c for c in report.checks if c.name == "unit-a")
        assert failure.status == "drift"
        assert "unreadable" in failure.detail and "no obs snapshot" in failure.detail

    def test_replay_without_obs_snapshot_is_drift(self, corpus_dir, monkeypatch):
        # Same signature, but the replayed result lost its FlightRecord:
        # the telemetry comparison cannot be skipped.
        def without_obs(config):
            return replace(run_mission(config), obs=None)

        monkeypatch.setattr(golden, "run_mission", without_obs)
        report = check_corpus(corpus_dir, missions=_tiny_missions())
        assert [c.status for c in report.checks] == ["drift", "drift"]
        assert all("no obs snapshot" in c.detail for c in report.checks)


class TestRecordContents:
    def test_record_mission_signature_matches_payload(self):
        config = CoSimConfig(world="tunnel", model="resnet6", max_sim_time=1.0)
        record = record_mission("unit", config)
        assert set(record.metrics) <= set(record.payload)
        assert record.config["world"] == "tunnel"
        # The record round-trips through its own JSON representation.
        again = GoldenRecord.from_json(record.to_json())
        assert again.signature == record.signature
        assert again.payload == record.payload

    def test_record_carries_obs_snapshot(self):
        config = CoSimConfig(world="tunnel", model="resnet6", max_sim_time=1.0)
        record = record_mission("unit", config)
        assert record.obs is not None
        steps = sum(
            row["value"]
            for row in record.obs["rose_sync_steps_total"]["series"]
        )
        assert steps > 0
        again = GoldenRecord.from_json(record.to_json())
        assert again.obs == json.loads(json.dumps(record.obs))

    def test_record_mission_refuses_result_without_obs(self, monkeypatch):
        def without_obs(config):
            return replace(run_mission(config), obs=None)

        monkeypatch.setattr(golden, "run_mission", without_obs)
        config = CoSimConfig(world="tunnel", model="resnet6", max_sim_time=1.0)
        with pytest.raises(ValueError, match="no obs snapshot"):
            record_mission("unit", config)


class TestCommittedCorpus:
    """The committed corpus under tests/golden/ IS the tier-1 drift gate."""

    def test_corpus_defines_at_least_eight_missions(self):
        assert len(golden_missions()) >= 8

    def test_every_mission_has_a_committed_record(self):
        for name in golden_missions():
            assert (DEFAULT_GOLDEN_DIR / f"{name}.json").is_file(), (
                f"golden record for {name!r} missing; run "
                "`python -m repro verify --record` and commit tests/golden/"
            )

    def test_committed_corpus_conforms(self):
        """Behavioural drift against tests/golden/ fails the suite here."""
        report = check_corpus()
        assert report.ok, "\n" + report.describe()
