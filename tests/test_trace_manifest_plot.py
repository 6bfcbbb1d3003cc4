"""Tests for tracing, experiment manifests, and terminal plotting."""

from __future__ import annotations

import json

import pytest

from repro import CoSimConfig, SyncConfig, run_mission
from repro.analysis.plot import sparkline, trajectory_plot
from repro.core.manifest import (
    MANIFEST_FORMAT,
    config_from_dict,
    config_to_dict,
    dump_manifest,
    load_manifest,
)
from repro.core.trace import Tracer
from repro.env.worlds import tunnel_world
from repro.errors import ConfigError


class TestTracer:
    def test_instant_and_span(self):
        tracer = Tracer()
        tracer.instant("CAMERA_REQ", "packet", 0.5, track="io")
        tracer.span("sync-step 0", "sync", 0.0, 0.01, step=0)
        assert len(tracer) == 2
        assert tracer.by_category("packet")[0].name == "CAMERA_REQ"
        assert tracer.by_category("sync")[0].duration_s == 0.01

    def test_chrome_trace_schema(self):
        tracer = Tracer()
        tracer.span("sync-step 0", "sync", 0.0, 0.01)
        tracer.instant("IMU_REQ", "packet", 0.005, track="io")
        data = json.loads(tracer.to_chrome_trace())
        events = data["traceEvents"]
        phases = {e["ph"] for e in events}
        assert {"M", "X", "i"} <= phases
        span = next(e for e in events if e["ph"] == "X")
        assert span["ts"] == 0.0
        assert span["dur"] == pytest.approx(10_000.0)  # 10 ms in us
        # Distinct tracks get distinct tids.
        tids = {e["tid"] for e in events if e["ph"] != "M"}
        assert len(tids) == 2

    def test_write(self, tmp_path):
        tracer = Tracer()
        tracer.instant("x", "c", 0.0)
        path = tmp_path / "trace.json"
        tracer.write(str(path))
        assert json.loads(path.read_text())["traceEvents"]

    def test_mission_tracing_end_to_end(self):
        tracer = Tracer()
        config = CoSimConfig(
            world="tunnel", model="resnet6", target_velocity=3.0, max_sim_time=3.0
        )
        run_mission(config, tracer=tracer)
        sync_steps = tracer.by_category("sync")
        # 3 s at 10 ms per step (+1 possible from float accumulation).
        assert 300 <= len(sync_steps) <= 301
        assert tracer.by_category("packet-from-rtl")
        assert tracer.by_category("packet-to-rtl")
        # The trace exports without error and is substantial.
        assert len(tracer.to_chrome_trace()) > 10_000


class TestManifest:
    def test_round_trip(self):
        config = CoSimConfig(
            world="s-shape",
            soc="B",
            model="resnet6",
            target_velocity=9.0,
            sync=SyncConfig(cycles_per_sync=50_000_000),
            dynamic_runtime=False,
            seed=7,
            world_params={"amplitude": 8.0},
        )
        restored = config_from_dict(config_to_dict(config))
        assert restored == config

    def test_manifest_round_trip(self):
        configs = {
            "fig10-a": CoSimConfig(world="tunnel", soc="A"),
            "fig11-r6": CoSimConfig(world="s-shape", model="resnet6", target_velocity=9.0),
        }
        restored = load_manifest(dump_manifest(configs))
        assert restored == configs

    def test_manifest_format_stamped(self):
        data = json.loads(dump_manifest({"x": CoSimConfig()}))
        assert data["format"] == MANIFEST_FORMAT

    def test_bad_json_rejected(self):
        with pytest.raises(ConfigError):
            load_manifest("{nope")

    def test_wrong_format_rejected(self):
        with pytest.raises(ConfigError):
            load_manifest('{"format": "other/9", "experiments": {}}')

    def test_unknown_fields_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict({"world": "tunnel", "warp_drive": True})

    def test_validation_still_applies(self):
        with pytest.raises(ConfigError):
            config_from_dict({"target_velocity": -1.0})


class TestSparkline:
    def test_empty(self):
        assert sparkline([]) == ""

    def test_constant_series(self):
        line = sparkline([5, 5, 5, 5])
        assert len(line) == 4
        assert len(set(line)) == 1

    def test_monotone_series_rises(self):
        line = sparkline(range(10))
        assert line[0] == " "
        assert line[-1] == "@"

    def test_downsampling(self):
        line = sparkline(range(1000), width=50)
        assert len(line) == 50


class TestTrajectoryPlot:
    def test_renders_walls_and_path(self):
        world = tunnel_world()

        class P:
            def __init__(self, x, y):
                self.x, self.y = x, y

        samples = [P(x, 0.0) for x in range(1, 49)]
        text = trajectory_plot(world, {"a-run": samples}, width=80, height=12)
        lines = text.splitlines()
        assert len(lines) == 13  # raster + legend
        assert any("#" in line for line in lines)  # walls
        assert any("a" in line for line in lines)  # trajectory glyph
        assert "a=a-run" in lines[-1]

    def test_multiple_trajectories(self):
        world = tunnel_world()

        class P:
            def __init__(self, x, y):
                self.x, self.y = x, y

        text = trajectory_plot(
            world,
            {"a": [P(10, 0.5)], "b": [P(20, -0.5)]},
            width=60,
            height=10,
        )
        assert "a" in text and "b" in text
