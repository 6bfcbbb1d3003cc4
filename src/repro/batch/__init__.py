"""Batched mission engine: vectorized lockstep execution of N missions.

Public surface:

* :class:`BatchEngine` / :func:`run_batch` — fly one lockstep group
  (results bit-identical to serial for the default behavioural
  perception).  A list of missions runs through
  :class:`~repro.sweep.runner.SweepRunner` with ``batch_size > 1``,
  which screens, groups, chunks and falls back to serial.
* :func:`batch_eligible` / :func:`batch_group_key` — the screening the
  sweep runner uses to decide what batches together.
* :class:`BatchedCnnPerception` — primable CNN perception whose forward
  passes are shared across the batch (the engine's one tolerance site).
"""

from repro.batch.eligibility import BatchIneligible, batch_eligible, batch_group_key
from repro.batch.engine import BatchEngine, run_batch
from repro.batch.infer import BatchedCnnPerception

__all__ = [
    "BatchEngine",
    "BatchIneligible",
    "BatchedCnnPerception",
    "batch_eligible",
    "batch_group_key",
    "run_batch",
]
