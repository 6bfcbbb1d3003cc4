"""Tests for dataset generation and the training loop.

The full train-to-accuracy path is exercised end to end on a tiny
dataset/model; the goal is correctness of the pipeline, with a weak
learnability check (better than chance), not benchmark accuracy.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.dnn.dataset import (
    ANGULAR_BOUNDARY,
    CENTER,
    LEFT,
    RIGHT,
    angular_class,
    generate_trail_dataset,
    lateral_class,
)
from repro.dnn.resnet import TrailNetModel
from repro.dnn.trainer import SgdConfig, SgdOptimizer, evaluate, train
from repro.env.camera import CameraParams


class TestClassBinning:
    def test_angular_classes(self):
        assert angular_class(math.radians(20)) == LEFT
        assert angular_class(0.0) == CENTER
        assert angular_class(math.radians(-20)) == RIGHT

    def test_angular_boundary(self):
        assert angular_class(ANGULAR_BOUNDARY + 1e-6) == LEFT
        assert angular_class(ANGULAR_BOUNDARY - 1e-6) == CENTER

    def test_lateral_classes(self):
        assert lateral_class(1.0, half_width=1.6) == LEFT
        assert lateral_class(0.0, half_width=1.6) == CENTER
        assert lateral_class(-1.0, half_width=1.6) == RIGHT

    def test_lateral_boundary_scales_with_width(self):
        # 0.2 * half_width boundary: 0.5 m is "left" in a narrow corridor
        # but "center" in a wide one.
        assert lateral_class(0.5, half_width=1.6) == LEFT
        assert lateral_class(0.5, half_width=3.2) == CENTER


@pytest.fixture(scope="module")
def tiny_dataset():
    return generate_trail_dataset(
        samples_per_class=12, camera=CameraParams(width=24, height=16), seed=0
    )


class TestDatasetGeneration:
    def test_size_and_shapes(self, tiny_dataset):
        assert len(tiny_dataset) == 36
        assert tiny_dataset.images.shape == (36, 1, 16, 24)
        assert tiny_dataset.images.dtype == np.float32

    def test_angular_classes_balanced(self, tiny_dataset):
        counts = np.bincount(tiny_dataset.angular_labels, minlength=3)
        np.testing.assert_array_equal(counts, [12, 12, 12])

    def test_labels_consistent_with_continuous_values(self, tiny_dataset):
        for i in range(len(tiny_dataset)):
            assert tiny_dataset.angular_labels[i] == angular_class(
                tiny_dataset.heading_errors[i]
            )
            assert tiny_dataset.lateral_labels[i] == lateral_class(
                tiny_dataset.lateral_offsets[i], tiny_dataset.half_width
            )

    def test_images_in_unit_range(self, tiny_dataset):
        assert tiny_dataset.images.min() >= 0.0
        assert tiny_dataset.images.max() <= 1.0

    def test_lateral_balance_mode(self):
        ds = generate_trail_dataset(
            samples_per_class=6,
            camera=CameraParams(width=16, height=12),
            seed=1,
            balance="lateral",
        )
        counts = np.bincount(ds.lateral_labels, minlength=3)
        np.testing.assert_array_equal(counts, [6, 6, 6])

    def test_invalid_balance_mode(self):
        with pytest.raises(ValueError):
            generate_trail_dataset(samples_per_class=1, balance="diagonal")

    def test_determinism(self):
        params = CameraParams(width=16, height=12)
        a = generate_trail_dataset(samples_per_class=4, camera=params, seed=5)
        b = generate_trail_dataset(samples_per_class=4, camera=params, seed=5)
        np.testing.assert_array_equal(a.images, b.images)
        np.testing.assert_array_equal(a.angular_labels, b.angular_labels)

    def test_split(self, tiny_dataset):
        train_set, val_set = tiny_dataset.split(0.75, seed=0)
        assert len(train_set) == 27
        assert len(val_set) == 9
        # No sample lost.
        assert len(train_set) + len(val_set) == len(tiny_dataset)

    def test_split_rejects_bad_fraction(self, tiny_dataset):
        with pytest.raises(ValueError):
            tiny_dataset.split(1.5)


class TestOptimizer:
    def test_sgd_descends_quadratic(self):
        from repro.dnn.layers import Parameter

        param = Parameter(np.array([4.0], dtype=np.float32))
        opt = SgdOptimizer([param], SgdConfig(learning_rate=0.1, momentum=0.0, weight_decay=0.0))
        for _ in range(100):
            opt.zero_grad()
            param.grad += 2 * param.value  # d/dx x^2
            opt.step()
        assert abs(param.value[0]) < 1e-3

    def test_momentum_accelerates(self):
        from repro.dnn.layers import Parameter

        def run(momentum):
            param = Parameter(np.array([4.0], dtype=np.float32))
            opt = SgdOptimizer(
                [param], SgdConfig(learning_rate=0.01, momentum=momentum, weight_decay=0.0)
            )
            for _ in range(50):
                opt.zero_grad()
                param.grad += 2 * param.value
                opt.step()
            return abs(param.value[0])

        assert run(0.9) < run(0.0)

    def test_weight_decay_shrinks_weights(self):
        from repro.dnn.layers import Parameter

        param = Parameter(np.array([4.0], dtype=np.float32))
        opt = SgdOptimizer(
            [param], SgdConfig(learning_rate=0.1, momentum=0.0, weight_decay=0.5)
        )
        for _ in range(10):
            opt.zero_grad()  # zero task gradient: only decay acts
            opt.step()
        assert abs(param.value[0]) < 4.0

    def test_lr_decay(self):
        from repro.dnn.layers import Parameter

        opt = SgdOptimizer([Parameter(np.zeros(1))], SgdConfig(learning_rate=1.0, lr_decay=0.5))
        opt.decay_lr()
        assert opt.lr == 0.5


class TestTraining:
    def test_training_learns_above_chance(self):
        ds = generate_trail_dataset(
            samples_per_class=60, camera=CameraParams(width=24, height=16), seed=2
        )
        train_set, val_set = ds.split(0.8, seed=0)
        model = TrailNetModel(
            input_shape=(1, 16, 24), stage_blocks=(1,), stage_channels=(8,), seed=0
        )
        result = train(
            model,
            train_set,
            val_set,
            SgdConfig(epochs=8, batch_size=16, learning_rate=0.05, seed=0),
        )
        final = result.final
        assert len(result.history) == 8
        # Meaningfully above the 1/3 chance level.
        assert max(final.angular_accuracy, final.lateral_accuracy) > 0.6
        assert np.isfinite(final.loss)

    def test_loss_decreases(self):
        ds = generate_trail_dataset(
            samples_per_class=20, camera=CameraParams(width=24, height=16), seed=3
        )
        train_set, val_set = ds.split(0.8, seed=0)
        model = TrailNetModel(
            input_shape=(1, 16, 24), stage_blocks=(1,), stage_channels=(6,), seed=0
        )
        result = train(
            model, train_set, val_set, SgdConfig(epochs=3, batch_size=16, seed=0)
        )
        losses = [e.loss for e in result.history]
        assert losses[-1] < losses[0]

    def test_evaluate_uses_eval_mode(self, tiny_dataset):
        model = TrailNetModel(
            input_shape=(1, 16, 24), stage_blocks=(1,), stage_channels=(4,), seed=0
        )
        model.train()
        evaluate(model, tiny_dataset)
        assert not model.backbone.training  # evaluate switched to eval

    def test_empty_history_raises(self):
        from repro.dnn.trainer import TrainResult

        with pytest.raises(ValueError):
            TrainResult().final
