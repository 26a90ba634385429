"""Execution-plan layer: lower models to cached LayerPlans, then execute.

This package separates convolution execution into the two phases the paper's
accelerator stack has (Section IV): a *lowering* phase that resolves
everything shape-dependent once — kernel backend, Winograd transform, tiling
geometry — into an immutable, process-wide-cached :class:`LayerPlan`; and an
*execution* phase that streams batches through the fixed plan:

* :func:`lower_winograd` / :func:`lower_conv2d` — compile + intern plans
  (cache stats via :func:`plan_cache_stats`; a plan holds its backend and
  the backend is part of the cache key).
* :func:`execute` / :func:`execute_tensor` — run a plan;
  the tensor form is a *single fused autograd node* (fused forward+backward,
  with the tap-wise fake quantization inside it for QAT layers).
* :class:`CompiledConv` — a convolution bound once to a backend and
  pre-transformed weights, for inference streams (every convolution step of
  a compiled serving model is one).
* :class:`BatchRunner` — the one owner of a shared-memory worker pool:
  shards a pool job's batches across workers that compile the job once and
  share plan-cache keys, and degrades to inline execution of the same
  chunks when the pool is lost.

The eager entry points in :mod:`repro.nn.functional`,
:mod:`repro.winograd.conv` and :mod:`repro.quant.qconv` lower-then-execute
through this package.
"""

from __future__ import annotations

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
]

