"""Model-level inference serving (PR 5), fault-tolerant since PR 6.

The engine layer (PR 2) made single layers cheap to re-execute: lower once to
a cached :class:`~repro.engine.LayerPlan`, stream batches through it.  This
package scales that idea to whole models under load — the paper's
deployment-time story (plan everything once, then saturate fixed-shape
pipelines with traffic):

* :func:`compile_model` / :class:`CompiledModel` — lower an ``nn.Module``
  network into an immutable sequence of plan-bound steps with
  pre-transformed weights, folded BatchNorm, fused ReLU, and a plan-keyed
  workspace arena (zero fresh large allocations in steady state).  ``infer``
  accepts an absolute ``deadline`` and aborts between steps when it expires.
  :class:`ModelJob` is the same compilation as a pool job: each worker
  compiles the network once.
* :class:`MicroBatcher` / :class:`InferenceRequest` — dynamic micro-batching
  with per-shape queues, a configurable latency deadline, bounded admission
  (load shedding past ``max_pending``), request cancellation, and
  pre-dispatch expiry of deadlined requests.
* :class:`ShmWorkerPool` — persistent worker processes, each holding at
  most one job and fed through one input and one output
  ``multiprocessing.shared_memory`` segment instead of pickle.  The pool
  supervises them: dead or stalled workers are detected (process sentinel +
  heartbeats), respawned with capped backoff, and their unacknowledged jobs
  retried bit-exactly on surviving workers.
  :class:`repro.engine.BatchRunner` owns it: it shards batches over the pool
  and, if the pool becomes :class:`PoolUnavailable`, degrades to inline
  execution of the same chunks.
* :class:`Server` — a synchronous facade with ``submit`` / ``infer`` /
  ``infer_batch``, end-to-end deadlines, load shedding, p50/p99 latency +
  robustness stats, and graceful drain-on-close; it serves a
  :class:`CompiledModel` in process or a ``BatchRunner(ModelJob(...))``
  over the pool.
* :class:`FaultPlan` — deterministic, seeded fault injection (kill / delay /
  drop / corrupt at scripted worker steps) so every failure mode above is a
  tested scenario, not a stack trace.

Failure taxonomy: :class:`WorkerJobError` (job raised remotely; traceback
preserved), :class:`WorkerCrashed` (worker died, retries exhausted),
:class:`RequestTimeout` (deadline missed; a ``TimeoutError``),
:class:`ServerOverloaded` (admission shed), :class:`RequestCancelled`,
:class:`PoolUnavailable` (degrade-to-inline signal).
"""

from .batcher import InferenceRequest, MicroBatcher
from .errors import (PoolUnavailable, RequestCancelled, RequestTimeout,
                     ServerOverloaded, ServingError, WorkerCrashed,
                     WorkerJobError)
from .faults import Fault, FaultPlan
from .model import CompiledModel, ModelJob, compile_model, register_compiler
from .pool import ShmWorkerPool
from .server import Server, ServerStats

__all__ = [
    "CompiledModel",
    "ModelJob",
    "compile_model",
    "register_compiler",
    "InferenceRequest",
    "MicroBatcher",
    "ShmWorkerPool",
    "Server",
    "ServerStats",
    "ServingError",
    "WorkerJobError",
    "WorkerCrashed",
    "RequestTimeout",
    "RequestCancelled",
    "ServerOverloaded",
    "PoolUnavailable",
    "Fault",
    "FaultPlan",
]
