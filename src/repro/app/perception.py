"""Perception stage: camera packet -> dual-head trail inference.

Two interchangeable implementations stand behind :class:`Perception`:

* :class:`BehavioralPerception` — the calibrated classifier of
  :mod:`repro.dnn.calibrated`, consuming the ground-truth course metadata
  carried in the camera packet.  Used by the closed-loop experiments so
  each ResNet variant shows its Table 3 accuracy/confidence.
* :class:`CnnPerception` — a real trained :class:`TrailNetModel` running
  on the packet's pixels.  Used by the train-and-fly example to
  demonstrate the full pipeline end to end.

Either way the *timing* of the inference is charged separately, by the
scheduled operator graph on the SoC cycle models; perception here supplies
only the classification outputs.

Each perception declares whether it reads the packet's pixels
(:attr:`Perception.reads_pixels`).  The co-simulation renders camera
frames only for a reader; a non-reader's camera packets carry an
all-zero frame of the same shape, so the wire format, and with it bridge
timing and every counter, is the same either way.  The flag defaults to
``True``: a perception that does not declare it still gets pixels.
"""

from __future__ import annotations

import numpy as np

from repro.core.packets import DataPacket, PacketType
from repro.dnn.calibrated import CalibratedTrailClassifier, ClassifierProfile, TrailInference
from repro.errors import ConfigError


class Perception:
    """Interface: produce a :class:`TrailInference` from a camera packet."""

    #: Whether :meth:`infer_packet` reads ``packet.raw``.  ``False``
    #: promises that the result depends on the packet's metadata only, so
    #: the environment may send a zero frame instead of rendering one.
    reads_pixels: bool = True

    def infer_packet(self, packet: DataPacket) -> TrailInference:  # pragma: no cover
        raise NotImplementedError


def _check_camera_packet(packet: DataPacket) -> None:
    if packet.ptype != PacketType.CAMERA_RESP:
        raise ConfigError(
            f"perception expects a CAMERA_RESP packet, got {packet.ptype.name}"
        )


class BehavioralPerception(Perception):
    """Calibrated classifier over the packet's course metadata."""

    reads_pixels = False

    def __init__(self, profile: ClassifierProfile, seed: int = 0):
        self.profile = profile
        self._classifier = CalibratedTrailClassifier(profile, seed=seed)

    def infer_packet(self, packet: DataPacket) -> TrailInference:
        _check_camera_packet(packet)
        _h, _w, timestamp, heading_error, lateral_offset, half_width = packet.values
        return self._classifier.infer(
            heading_error, lateral_offset, half_width, timestamp=timestamp
        )


class CnnPerception(Perception):
    """A trained :class:`~repro.dnn.resnet.TrailNetModel` over the pixels."""

    def __init__(self, model):
        self.model = model
        self.model.eval()

    def infer_packet(self, packet: DataPacket) -> TrailInference:
        _check_camera_packet(packet)
        height, width = int(packet.values[0]), int(packet.values[1])
        pixels = (
            np.frombuffer(packet.raw, dtype=np.uint8)
            .reshape(1, 1, height, width)
            .astype(np.float32)
            / 255.0
        )
        angular_probs, lateral_probs = self.model.predict_probs(pixels)
        return TrailInference(
            angular_probs=angular_probs[0],
            lateral_probs=lateral_probs[0],
            angular_pred=int(angular_probs[0].argmax()),
            lateral_pred=int(lateral_probs[0].argmax()),
        )
