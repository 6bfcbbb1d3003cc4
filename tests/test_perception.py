"""Tests for the perception stage (behavioural and CNN-backed)."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.app.perception import BehavioralPerception, CnnPerception, Perception
from repro.batch.infer import BatchedCnnPerception
from repro.core import packets as pk
from repro.dnn.calibrated import classifier_profile
from repro.dnn.resnet import TrailNetModel
from repro.errors import ConfigError


def camera_packet(
    heading_error=0.0, lateral_offset=0.0, half_width=1.6, h=32, w=48, ts=1.0, pixels=None
):
    return pk.camera_response(
        h, w, ts, heading_error, lateral_offset, half_width,
        bytes(h * w) if pixels is None else pixels,
    )


@pytest.mark.parametrize(
    "cls, reads",
    [
        (Perception, True),
        (BehavioralPerception, False),
        (CnnPerception, True),
        (BatchedCnnPerception, True),
    ],
)
def test_reads_pixels_declared(cls, reads):
    # An undeclared perception inherits True, so it still gets pixels.
    assert cls.reads_pixels is reads


class TestBehavioralPerception:
    def test_uses_packet_metadata(self):
        perception = BehavioralPerception(classifier_profile("resnet34"), seed=0)
        packet = camera_packet(heading_error=math.radians(30), lateral_offset=-1.2)
        result = perception.infer_packet(packet)
        assert result.angular_pred == 0  # LEFT
        assert result.lateral_pred == 2  # RIGHT

    def test_rejects_non_camera_packet(self):
        perception = BehavioralPerception(classifier_profile("resnet14"), seed=0)
        with pytest.raises(ConfigError):
            perception.infer_packet(pk.depth_response(1.0))

    def test_ignores_pixels(self):
        # The contract behind reads_pixels = False: zero frames and real
        # ones yield the same inference stream.
        rng = np.random.default_rng(0)
        zeros = BehavioralPerception(classifier_profile("resnet6"), seed=3)
        noisy = BehavioralPerception(classifier_profile("resnet6"), seed=3)
        for step in range(20):
            meta = dict(
                heading_error=0.05 * (step - 10), lateral_offset=0.1 * step, ts=0.05 * step
            )
            a = zeros.infer_packet(camera_packet(**meta))
            b = noisy.infer_packet(
                camera_packet(**meta, pixels=rng.integers(0, 256, 32 * 48, np.uint8).tobytes())
            )
            np.testing.assert_array_equal(a.angular_probs, b.angular_probs)
            np.testing.assert_array_equal(a.lateral_probs, b.lateral_probs)
            assert (a.angular_pred, a.lateral_pred) == (b.angular_pred, b.lateral_pred)

    def test_timestamp_drives_correlation(self):
        perception = BehavioralPerception(classifier_profile("resnet6"), seed=1)
        a = perception.infer_packet(camera_packet(ts=1.0))
        b = perception.infer_packet(camera_packet(ts=1.001))
        np.testing.assert_allclose(a.angular_probs, b.angular_probs, atol=0.05)


class TestCnnPerception:
    @pytest.fixture(scope="class")
    def model(self):
        return TrailNetModel(
            input_shape=(1, 32, 48), stage_blocks=(1,), stage_channels=(4,), seed=0
        )

    def test_consumes_pixels(self, model):
        perception = CnnPerception(model)
        result = perception.infer_packet(camera_packet())
        assert result.angular_probs.shape == (3,)
        assert result.angular_probs.sum() == pytest.approx(1.0, rel=1e-5)
        assert 0 <= result.angular_pred <= 2

    def test_eval_mode_forced(self, model):
        model.train()
        CnnPerception(model)
        assert not model.backbone.training

    def test_deterministic_per_image(self, model):
        perception = CnnPerception(model)
        a = perception.infer_packet(camera_packet())
        b = perception.infer_packet(camera_packet())
        np.testing.assert_array_equal(a.angular_probs, b.angular_probs)

    def test_rejects_non_camera_packet(self, model):
        with pytest.raises(ConfigError):
            CnnPerception(model).infer_packet(pk.imu_response(0, 0, 0, 0, 0))
