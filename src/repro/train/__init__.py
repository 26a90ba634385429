"""Fault-tolerant training: crash-safe checkpoints and data-parallel steps.

The training-side counterpart of :mod:`repro.serve` (PR 6): every failure
mode of the training loop gets a guarantee —

* **worker death / stall / corruption mid-step** — gradient shards ride the
  supervised :class:`~repro.serve.ShmWorkerPool`; chunk boundaries are fixed
  by the configured worker count and each shard frame is a pure function
  input, so a retried shard is bit-identical (:mod:`repro.train.aggregation`);
* **total pool loss** — the trainer's :class:`~repro.engine.BatchRunner`
  reruns the same frames inline, mid-run, with bit-identical results;
* **training-process death** — :class:`CheckpointStore` commits atomic,
  checksummed checkpoints at step boundaries, and :meth:`Trainer.resume`
  restores model, optimizer slots, schedulers, and every RNG stream so the
  finished run matches an uninterrupted one bit for bit;
* **aborted steps** — autograd workspaces are leased from an
  :class:`~repro.engine.ArenaPool` per step, so an exception mid-step
  reclaims (and clears) the workspace instead of leaking it.
"""

from .aggregation import (GradStepJob, accumulate_replies, apply_step_results,
                          encode_frame, flatten_state)
from .checkpoint import CheckpointStore
from .trainer import DataParallelTrainer, Trainer

__all__ = [
    "Trainer",
    "DataParallelTrainer",
    "CheckpointStore",
    "GradStepJob",
    "chunk_bounds",
    "flatten_state",
    "encode_frame",
    "accumulate_replies",
    "apply_step_results",
]


def __getattr__(name: str):
    # The pool's chunk rule, re-exported without importing repro.serve (and
    # multiprocessing) at ``import repro`` time.
    if name == "chunk_bounds":
        from ..serve.pool import chunk_bounds
        return chunk_bounds
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
