"""Tests for SyncConfig (Equation 1), CoSimConfig, CSV logging, deploy."""

from __future__ import annotations

import pickle

import pytest

from repro.core.config import CoSimConfig, SyncConfig
from repro.core.csvlog import SyncLogger, SyncLogRow
from repro.core.deploy import CLOUD_AWS, DEPLOYMENTS, ON_PREMISE, deployment
from repro.errors import ConfigError


class TestSyncConfig:
    def test_equation_1_default(self):
        # 10M cycles at 1 GHz, 100 Hz frames -> 1 frame per sync
        # (Figure 16's finest granularity).
        sync = SyncConfig(cycles_per_sync=10_000_000)
        assert sync.frames_per_sync == 1
        assert sync.sync_period_seconds == pytest.approx(0.01)

    def test_equation_1_coarse(self):
        sync = SyncConfig(cycles_per_sync=400_000_000)
        assert sync.frames_per_sync == 40  # Figure 16's coarsest point

    def test_figure6_configuration(self):
        # "modeling a 1GHz SoC and updating AirSim 60 frames per simulated
        # second, synchronization occurs every 16 million cycles"
        sync = SyncConfig(cycles_per_sync=16_666_667, frame_rate_hz=60.0)
        assert sync.frames_per_sync == 1

    def test_cycles_per_frame(self):
        sync = SyncConfig(cycles_per_sync=100_000_000)
        assert sync.cycles_per_frame == pytest.approx(10_000_000)

    def test_sub_frame_period_rejected(self):
        with pytest.raises(ConfigError):
            SyncConfig(cycles_per_sync=1_000_000)  # 1 ms < one 100 Hz frame

    def test_non_positive_rejected(self):
        with pytest.raises(ConfigError):
            SyncConfig(cycles_per_sync=0)
        with pytest.raises(ConfigError):
            SyncConfig(frame_rate_hz=0.0)

    def test_describe(self):
        assert "10M cycles" in SyncConfig().describe()


class TestCoSimConfig:
    def test_defaults(self):
        config = CoSimConfig()
        assert config.world == "tunnel"
        assert config.soc == "A"
        assert config.model == "resnet14"

    def test_env_config_derived(self):
        config = CoSimConfig(world="s-shape", initial_angle_deg=20.0, seed=3)
        env = config.env_config()
        assert env.world == "s-shape"
        assert env.initial_angle_deg == 20.0
        assert env.seed == 3
        assert env.frame_rate == config.sync.frame_rate_hz

    def test_invalid_velocity(self):
        with pytest.raises(ConfigError):
            CoSimConfig(target_velocity=0.0)

    def test_invalid_sim_time(self):
        with pytest.raises(ConfigError):
            CoSimConfig(max_sim_time=-1.0)


def sample_row(step=0):
    return SyncLogRow(
        step=step,
        sim_time=step * 0.01,
        x=1.0,
        y=0.5,
        z=1.5,
        yaw=0.1,
        speed=3.0,
        course_s=1.0,
        course_d=0.5,
        collisions=0,
        camera_requests=2,
        imu_requests=0,
        depth_requests=1,
        target_v_forward=3.0,
        target_v_lateral=0.2,
        target_yaw_rate=-0.1,
    )


class TestCsvLogger:
    def test_log_and_len(self):
        logger = SyncLogger()
        logger.log(sample_row())
        assert len(logger) == 1

    def test_csv_header(self):
        logger = SyncLogger()
        text = logger.to_csv()
        assert text.splitlines()[0].startswith("step,sim_time,x,y,z,yaw")

    def test_round_trip_via_file(self, tmp_path):
        logger = SyncLogger()
        for step in range(5):
            logger.log(sample_row(step))
        path = tmp_path / "log.csv"
        logger.write(str(path))
        loaded = SyncLogger.read(str(path))
        assert len(loaded) == 5
        assert loaded.rows[3] == logger.rows[3]

    def test_rows_stay_rows_through_csv_and_pickle(self, tmp_path):
        logger = SyncLogger()
        for step in range(3):
            logger.log(sample_row(step)._replace(packets_dropped=step, retries=1))
        path = tmp_path / "log.csv"
        logger.write(str(path))
        for twin in (
            SyncLogger.read(str(path)),
            pickle.loads(pickle.dumps(logger, protocol=pickle.HIGHEST_PROTOCOL)),
        ):
            assert twin.rows == logger.rows
            for got, want in zip(twin.rows, logger.rows):
                assert type(got) is SyncLogRow
                assert [type(v) for v in got] == [type(v) for v in want]
                assert got.packets_dropped == want.packets_dropped

    def test_fields_cover_artifact_columns(self):
        # "CSV logs from the synchronizer, tracking UAV dynamics, sensing
        # requests, and control targets".
        fields = set(SyncLogRow.FIELDS)
        assert {"x", "y", "yaw", "speed"} <= fields  # dynamics
        assert {"camera_requests", "imu_requests", "depth_requests"} <= fields
        assert {"target_v_forward", "target_yaw_rate"} <= fields


class TestDeployments:
    def test_table4_machines(self):
        assert ON_PREMISE.airsim.gpu == "GeForce GTX TITAN X"
        assert ON_PREMISE.firesim.fpga == "Xilinx U250"
        assert CLOUD_AWS.airsim.instance == "g4dn.2xlarge"
        assert CLOUD_AWS.firesim.instance == "f1.2xlarge"
        assert CLOUD_AWS.firesim.fpga == "Xilinx VU9P"

    def test_lookup(self):
        assert deployment("on-premise") is ON_PREMISE
        with pytest.raises(KeyError):
            deployment("mars-datacenter")

    def test_table_rows_layout(self):
        rows = ON_PREMISE.table_rows()
        fields = [r[0] for r in rows]
        assert fields == ["Instance", "CPU", "Frequency", "GPU", "FPGA", "OS"]
        gpu_row = dict((r[0], (r[1], r[2])) for r in rows)["GPU"]
        assert gpu_row == ("GeForce GTX TITAN X", "N/A")

    def test_cloud_has_higher_overhead(self):
        assert CLOUD_AWS.perf.sync_overhead_s > ON_PREMISE.perf.sync_overhead_s

    def test_registry_complete(self):
        assert set(DEPLOYMENTS) == {"on-premise", "cloud-aws"}
