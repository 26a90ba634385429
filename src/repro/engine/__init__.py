"""Execution-plan layer: lower models to cached LayerPlans, then execute.

This package separates convolution execution into the two phases the paper's
accelerator stack has (Section IV): a *lowering* phase that resolves
everything shape-dependent once — kernel backend, Winograd transform, tiling
geometry, workspace shapes, quantization parameters — into an immutable,
process-wide-cached :class:`LayerPlan`; and an *execution* phase that streams
batches through the fixed plan:

* :func:`lower_winograd` / :func:`lower_conv2d` — compile + intern plans
  (cache stats via :func:`plan_cache_stats`; the cache is evicted when the
  active kernel backend changes).
* :func:`execute` / :func:`execute_tensor` — run a plan;
  the tensor form is a *single fused autograd node* (fused forward+backward,
  with the tap-wise fake quantization inside it for QAT layers).
* :class:`CompiledConv` — a plan with bound (pre-transformed) weights, for
  inference streams.
* :class:`BatchRunner` — the one owner of a shared-memory worker pool:
  shards a pool job's batches across workers that compile the job once and
  share plan-cache keys, and degrades to inline execution of the same
  chunks when the pool is lost.
* :func:`warm_plans` — pre-lower every conv layer of a model by tracing one
  forward pass, so training loops and sweeps start with a hot plan cache.

The eager entry points in :mod:`repro.nn.functional`,
:mod:`repro.winograd.conv` and :mod:`repro.quant.qconv` lower-then-execute
through this package.
"""

from __future__ import annotations

import numpy as np

from .arena import ArenaPool, WorkspaceArena, current_arena, use_arena
from .executor import CompiledConv, execute, execute_tensor
from .plan import (PLAN_CACHE_MAXSIZE, LayerPlan, PlanStats, clear_plan_cache,
                   lower_conv2d, lower_winograd, plan_cache_stats,
                   reset_plan_stats)
from .runner import BatchRunner

__all__ = [
    "ArenaPool",
    "WorkspaceArena",
    "use_arena",
    "current_arena",
    "LayerPlan",
    "PlanStats",
    "lower_winograd",
    "lower_conv2d",
    "plan_cache_stats",
    "clear_plan_cache",
    "reset_plan_stats",
    "PLAN_CACHE_MAXSIZE",
    "CompiledConv",
    "execute",
    "execute_tensor",
    "BatchRunner",
    "warm_plans",
]


def warm_plans(model, input_shape: tuple, dtype=np.float64) -> int:
    """Pre-lower every conv layer of ``model`` by tracing one forward pass.

    Runs a single zero-input forward in eval mode under ``no_grad`` — the
    rewired layers lower and intern their plans as a side effect — and
    returns the number of new plans added to the cache.  Training mode is
    restored afterwards; eval mode means no BatchNorm statistics, dropout
    masks, or observer calibrations are touched, so the trace is free of
    side effects on the model.
    """
    from ..nn.tensor import Tensor, no_grad

    was_training = getattr(model, "training", False)
    model.eval()
    before = plan_cache_stats().size
    try:
        with no_grad():
            model(Tensor(np.zeros(input_shape, dtype=dtype)))
    finally:
        if was_training:
            model.train()
    return plan_cache_stats().size - before
