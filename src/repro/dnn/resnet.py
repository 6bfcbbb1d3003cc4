"""TrailNet-style dual-head ResNet controllers (Figure 8).

The paper evaluates ResNet-6/11/14/18/34 variants of TrailNet's
architecture: a ResNet backbone feeding two 3-way classifier heads, one for
the UAV's angle relative to the trail and one for its lateral offset.  This
module defines the variants twice, for the two jobs the paper needs them
for:

* :func:`build_resnet_graph` produces the exact operator graph (onnx-lite)
  with real MAC / parameter counts — what the SoC cycle models execute to
  obtain Table 3's latencies;
* :func:`build_trainable_trailnet` instantiates a *runnable* scaled-down
  network from :mod:`repro.dnn.layers` for the real train/eval path on
  rendered camera images.

Depth naming convention (matching the paper's counting of weighted
layers): stem conv + 2 x (blocks per stage) convs + 1 head layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.dnn.graph import Graph, GraphBuilder, Shape
from repro.dnn.layers import (
    Conv2d,
    BatchNorm2d,
    DualHead,
    GlobalAvgPool2d,
    MaxPool2d,
    Relu,
    ResidualBlock,
    Sequential,
)
from repro.errors import GraphError


@dataclass(frozen=True)
class ResNetSpec:
    """Architecture of one ResNet variant."""

    name: str
    stage_blocks: tuple[int, ...]
    stage_channels: tuple[int, ...]
    classes: int = 3

    @property
    def depth(self) -> int:
        """Weighted-layer count: stem + 2 convs per block + head."""
        return 1 + 2 * sum(self.stage_blocks) + 1


_SPECS: dict[str, ResNetSpec] = {
    spec.name: spec
    for spec in (
        ResNetSpec("resnet6", (1, 1), (64, 128)),
        ResNetSpec("resnet11", (1, 1, 1, 1), (64, 128, 256, 512)),
        ResNetSpec("resnet14", (1, 2, 2, 1), (64, 128, 256, 512)),
        ResNetSpec("resnet18", (2, 2, 2, 2), (64, 128, 256, 512)),
        ResNetSpec("resnet34", (3, 4, 6, 3), (64, 128, 256, 512)),
    )
}

RESNET_NAMES: tuple[str, ...] = tuple(sorted(_SPECS, key=lambda n: _SPECS[n].depth))

#: Camera-image resolution assumed by the latency graphs (FPV frame scaled
#: to the network input, FP32, CHW).
DEFAULT_INPUT_SHAPE: Shape = (3, 128, 128)


def resnet_spec(name: str) -> ResNetSpec:
    try:
        return _SPECS[name]
    except KeyError:
        raise GraphError(
            f"unknown ResNet variant {name!r}; available: {list(RESNET_NAMES)}"
        ) from None


def _basic_block_graph(b: GraphBuilder, channels: int, stride: int) -> None:
    """Append one basic residual block at the builder cursor."""
    entry = b.cursor
    in_channels = b.graph.node(entry).output_shape[0]
    b.conv(channels, 3, stride=stride, padding=1)
    b.batchnorm()
    b.relu()
    b.conv(channels, 3, stride=1, padding=1)
    body = b.batchnorm()
    if stride != 1 or in_channels != channels:
        b.conv(channels, 1, stride=stride, src=entry)
        skip = b.batchnorm()
    else:
        skip = entry
    b.add(body, skip)
    b.relu()


def build_resnet_graph(name: str, input_shape: Shape = DEFAULT_INPUT_SHAPE) -> Graph:
    """Build the dual-head operator graph for a named variant (memoized).

    Outputs are the two softmaxed heads: ``angular_probs`` and
    ``lateral_probs`` (3 classes each: left / center / right).

    Graphs are static and treated as immutable after construction (the
    runtime only reads them), so repeated calls with the same
    ``(name, input_shape)`` return one shared instance — a
    :class:`CoSimulation` or sweep worker pays the build cost once per
    model rather than once per session.
    """
    return _build_resnet_graph_cached(name, tuple(input_shape))


@lru_cache(maxsize=None)
def _build_resnet_graph_cached(name: str, input_shape: Shape) -> Graph:
    spec = resnet_spec(name)
    b = GraphBuilder(name, input_shape)
    # Stem: 7x7/2 conv + 2x2 maxpool, as in standard ResNets.
    b.conv(spec.stage_channels[0], 7, stride=2, padding=3, name="stem")
    b.batchnorm()
    b.relu()
    b.maxpool(2, 2)
    for stage, (blocks, channels) in enumerate(
        zip(spec.stage_blocks, spec.stage_channels)
    ):
        for block in range(blocks):
            stride = 2 if (stage > 0 and block == 0) else 1
            _basic_block_graph(b, channels, stride)
    trunk = b.globalavgpool()
    for head in ("angular", "lateral"):
        b.linear(spec.classes, src=trunk, name=f"{head}_logits")
        b.softmax(name=f"{head}_probs")
        b.output()
    return b.build()


def build_all_graphs(input_shape: Shape = DEFAULT_INPUT_SHAPE) -> dict[str, Graph]:
    """All five variants, keyed by name, ordered by depth."""
    return {name: build_resnet_graph(name, input_shape) for name in RESNET_NAMES}


# ---------------------------------------------------------------------------
# Runnable (trainable) network
# ---------------------------------------------------------------------------
class TrailNetModel:
    """A runnable dual-head classifier over rendered camera images.

    A scaled-down instantiation (narrow channels, small input) of the same
    topology, practical to train with the numpy layer library.  Used by the
    training example and the train/eval tests; the full-size variants exist
    as operator graphs for the cycle models.
    """

    def __init__(
        self,
        input_shape: Shape = (1, 32, 48),
        stage_blocks: tuple[int, ...] = (1, 1),
        stage_channels: tuple[int, ...] = (8, 16),
        classes: int = 3,
        seed: int = 0,
    ):
        rng = np.random.default_rng(seed)
        self.input_shape = tuple(input_shape)
        c_in = input_shape[0]
        layers: list = [
            Conv2d(c_in, stage_channels[0], 3, stride=1, padding=1, bias=False, rng=rng, name="stem"),
            BatchNorm2d(stage_channels[0], name="stem_bn"),
            Relu(),
            MaxPool2d(2, 2),
        ]
        in_ch = stage_channels[0]
        for stage, (blocks, channels) in enumerate(zip(stage_blocks, stage_channels)):
            for block in range(blocks):
                stride = 2 if (stage > 0 and block == 0) else 1
                layers.append(
                    ResidualBlock(in_ch, channels, stride=stride, rng=rng, name=f"s{stage}b{block}")
                )
                in_ch = channels
        layers.append(GlobalAvgPool2d())
        self.backbone = Sequential(*layers)
        self.head = DualHead(in_ch, classes=classes, rng=rng)
        self.classes = classes

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Logits of shape (N, 2 * classes): angular then lateral."""
        return self.head.forward(self.backbone.forward(x))

    def backward(self, grad: np.ndarray) -> np.ndarray:
        return self.backbone.backward(self.head.backward(grad))

    def parameters(self):
        return self.backbone.parameters() + self.head.parameters()

    def train(self) -> None:
        self.backbone.train()

    def eval(self) -> None:
        self.backbone.eval()

    def predict_probs(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(angular_probs, lateral_probs), each (N, classes)."""
        from repro.dnn.layers import softmax

        logits = self.forward(x)
        c = self.classes
        return softmax(logits[:, :c], axis=1), softmax(logits[:, c:], axis=1)


def build_trainable_trailnet(seed: int = 0, input_shape: Shape = (1, 32, 48)) -> TrailNetModel:
    """Convenience constructor used by examples and tests."""
    return TrailNetModel(input_shape=input_shape, seed=seed)
