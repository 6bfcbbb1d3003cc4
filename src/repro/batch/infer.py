"""Batched CNN perception: one forward pass for a whole mission batch.

:class:`BatchedCnnPerception` is a drop-in replacement for
:class:`repro.app.perception.CnnPerception`.  Standalone it behaves
identically — decode the packet, run ``model.predict_probs`` on a
single-image batch.  Under the batched engine, the engine *primes* every
lane's perception for the camera responses it just rendered: the decoded
frames of all lanes are stacked and pushed through ``predict_probs``
once, so the conv/GEMM work is amortized across the batch (im2col in
:mod:`repro.dnn.layers` batches natively over the leading axis).

Tolerance site (the only one in the batched engine): BLAS sgemm blocks
by output rows, so a row of a ``(K·P, C)`` matmul is not guaranteed
bit-identical to the same row of the ``(P, C)`` single-image call.
Probabilities agree to float32 roundoff (the batched-vs-serial oracle
pins rtol=1e-5/atol=1e-6); class predictions — what the controller
consumes — agree except on exact probability ties.  Mission runs that
must be bit-exact (everything the sweep cache stores) use the default
:class:`~repro.app.perception.BehavioralPerception`, which carries no
pixel-side GEMM and batches exactly.
"""

from __future__ import annotations

import numpy as np

from repro.app.perception import Perception, _check_camera_packet
from repro.core.packets import DataPacket
from repro.dnn.calibrated import TrailInference


def _decode(raw: bytes, height: int, width: int) -> np.ndarray:
    """The exact ``CnnPerception.infer_packet`` pixel decode."""
    return (
        np.frombuffer(raw, dtype=np.uint8)
        .reshape(1, 1, height, width)
        .astype(np.float32)
        / 255.0
    )


def _inference(angular_probs: np.ndarray, lateral_probs: np.ndarray) -> TrailInference:
    return TrailInference(
        angular_probs=angular_probs,
        lateral_probs=lateral_probs,
        angular_pred=int(angular_probs.argmax()),
        lateral_pred=int(lateral_probs.argmax()),
    )


class BatchedCnnPerception(Perception):
    """A trained TrailNet over pixels, primable with batched results."""

    def __init__(self, model):
        self.model = model
        self.model.eval()
        #: Primed results keyed by raw pixel payload (FIFO per payload).
        self._primed: dict[bytes, list[TrailInference]] = {}
        self.primed_hits = 0
        self.fallback_inferences = 0

    # -- engine-side API ------------------------------------------------
    def begin_round(self) -> None:
        """Drop stale primes (requests the app never consumed)."""
        self._primed.clear()

    def prime(self, raw: bytes, inference: TrailInference) -> None:
        """Store a precomputed inference for an upcoming packet."""
        self._primed.setdefault(raw, []).append(inference)

    @staticmethod
    def prime_batch(
        items: list[tuple["BatchedCnnPerception", bytes, int, int]],
    ) -> None:
        """One forward pass covering every (perception, frame) pair.

        ``items`` holds ``(perception, raw_pixels, height, width)`` per
        camera response about to be delivered.  All frames share one
        ``predict_probs`` call on the first perception's model when the
        models coincide; mixed models fall back to per-model sub-batches.
        """
        by_model: dict[int, list[tuple[BatchedCnnPerception, bytes, int, int]]] = {}
        for perception, raw, height, width in items:
            by_model.setdefault(id(perception.model), []).append(
                (perception, raw, height, width)
            )
        for group in by_model.values():
            frames = np.concatenate(
                [_decode(raw, height, width) for _p, raw, height, width in group]
            )
            angular, lateral = group[0][0].model.predict_probs(frames)
            for i, (perception, raw, _h, _w) in enumerate(group):
                perception.prime(raw, _inference(angular[i], lateral[i]))

    # -- app-side API ---------------------------------------------------
    def infer_packet(self, packet: DataPacket) -> TrailInference:
        _check_camera_packet(packet)
        queue = self._primed.get(packet.raw)
        if queue:
            self.primed_hits += 1
            result = queue.pop(0)
            if not queue:
                del self._primed[packet.raw]
            return result
        # Serial path (also the behaviour outside the batched engine):
        # bit-identical to CnnPerception.
        self.fallback_inferences += 1
        height, width = int(packet.values[0]), int(packet.values[1])
        angular, lateral = self.model.predict_probs(
            _decode(packet.raw, height, width)
        )
        return _inference(angular[0], lateral[0])
