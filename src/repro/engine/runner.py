"""BatchRunner: shard a stream of convolution inputs across worker processes.

The kernel registry is the seam this rides on (ROADMAP open item): a worker is
just another process with the same backends registered, so the parent ships a
picklable :class:`ConvJob` — weights, geometry, a *transform name* and a
*backend name*, never live objects — and each worker rebuilds a
:class:`~repro.engine.executor.CompiledConv` exactly once in its initializer.
Because lowering goes through the shared plan cache with the same keys the
parent uses, a worker lowers each input shape once and every later chunk is a
cache hit: workers never re-lower, and with the (default, where available)
``fork`` start method they even inherit plans the parent had already lowered.

With ``num_workers > 0`` the runner delegates to
:class:`repro.serve.ShmWorkerPool`: supervised long-lived workers fed
through ``multiprocessing.shared_memory`` ring buffers, so array bytes cross
the process boundary as one memcpy each way instead of a pickle round trip.
When the pool cannot be created (no shared memory, process spawning
forbidden) the runner executes inline instead of failing construction, and a
pool that later loses every worker for good
(:class:`~repro.serve.PoolUnavailable` after the supervisor's respawn
attempts are exhausted) likewise degrades to inline mid-run instead of
failing the batch.  ``num_workers=0`` executes inline in the calling
process — same results, no processes.  :attr:`BatchRunner.transport` reports
which of the two is in use: ``"shm"`` or ``"inline"``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..obs import trace as _trace
from .executor import CompiledConv
from .plan import lower_conv2d, lower_winograd

__all__ = ["ConvJob", "BatchRunner"]


@dataclass(frozen=True)
class ConvJob:
    """Picklable description of one bound convolution layer.

    ``transform`` and ``backend`` are *names* (resolved in the worker against
    its own registries) so that the per-process singletons — transform
    matrices, kernel backends, plan cache — are shared by key, not by pickle.

    ConvJob is the reference implementation of the **pool-job protocol**
    :class:`~repro.serve.ShmWorkerPool` drives: any picklable object with

    * ``compile() -> callable`` — build the per-worker executable once (the
      callable maps one input array to one output array);
    * ``out_shape(in_shape) -> tuple`` — the reply shape for an input shape,
      so the parent can size output segments without a round trip;
    * ``out_dtype(in_dtype) -> np.dtype`` — likewise for the reply dtype;

    can ride the shared-memory transport.  ``repro.train`` ships gradient
    jobs through the same pool this way.
    """

    weight: np.ndarray
    bias: np.ndarray | None = None
    stride: int = 1
    padding: int = 0
    transform: str | None = None      # None -> im2col, "F2"/"F4"/... -> Winograd
    backend: str | None = None        # None -> the worker's default backend

    def compile(self) -> CompiledConv:
        return CompiledConv(self.weight, self.bias, stride=self.stride,
                            padding=self.padding, transform=self.transform,
                            backend=self.backend)

    def out_shape(self, in_shape: tuple) -> tuple:
        """Reply shape for ``in_shape``, from the (cached) layer plan."""
        if self.transform is not None:
            plan = lower_winograd(in_shape, self.weight.shape, self.transform,
                                  self.padding, backend=self.backend)
        else:
            plan = lower_conv2d(in_shape, self.weight.shape, self.stride,
                                self.padding, backend=self.backend)
        return plan.out_shape

    def out_dtype(self, in_dtype) -> np.dtype:
        return np.result_type(in_dtype, self.weight.dtype)


class BatchRunner:
    """Runs a bound convolution over input streams, optionally sharded.

    Parameters
    ----------
    job:
        The layer to run (see :class:`ConvJob`).
    num_workers:
        ``0`` (default) executes inline; ``> 0`` spawns a shared-memory
        worker pool whose workers each compile ``job`` once.
    chunk_size:
        Batch items per shard when splitting one large batch in :meth:`run`;
        defaults to an even split across workers.
    mp_context:
        multiprocessing start method (``"fork"``/``"spawn"``/...); default
        prefers ``fork`` so workers inherit the parent's warm caches.
    """

    def __init__(self, job: ConvJob, num_workers: int = 0,
                 chunk_size: int | None = None, mp_context: str | None = None):
        self.job = job
        self.num_workers = int(num_workers)
        self.chunk_size = chunk_size
        self.transport = "inline"
        self._shm_pool = None
        self._local: CompiledConv | None = None   # compiled lazily on first use
        if self.num_workers > 0:
            try:
                from ..serve.pool import ShmWorkerPool
                self._shm_pool = ShmWorkerPool(job, self.num_workers,
                                               mp_context=mp_context)
                self.transport = "shm"
            except Exception:
                # No shared memory or process spawning is forbidden here:
                # execute inline instead of failing construction.
                pass

    def _local_conv(self) -> CompiledConv:
        if self._local is None:
            self._local = self.job.compile()
        return self._local

    def _degrade_inline(self) -> None:
        """The shm pool is gone for good: fall back to in-process execution.

        Triggered by :class:`~repro.serve.PoolUnavailable` (every worker
        dead, respawning failed — e.g. process spawning became forbidden
        mid-run).  Results are identical; only the sharding is lost.
        """
        if self._shm_pool is not None:
            self._shm_pool.close()
            self._shm_pool = None
        self.transport = "inline"
        _trace.instant("runner.degraded_inline", cat="fault")

    # ------------------------------------------------------------------ #
    def run(self, x: np.ndarray) -> np.ndarray:
        """One (possibly large) batch, sharded along the batch axis."""
        x = np.asarray(x)
        if x.shape[0] == 0:
            # Empty batch: no shards, no worker round trips — the inline
            # executor already produces the correctly-shaped empty output.
            return self._local_conv()(x)
        with _trace.span("runner.run", cat="pool", transport=self.transport,
                         batch=int(x.shape[0])):
            if self._shm_pool is not None:
                from ..serve.errors import PoolUnavailable
                try:
                    return self._shm_pool.run(x, chunk_size=self.chunk_size)
                except PoolUnavailable:
                    self._degrade_inline()
            return self._local_conv()(x)

    def map(self, inputs) -> list[np.ndarray]:
        """A stream of independent input arrays (one result per input)."""
        inputs = [np.asarray(x) for x in inputs]
        if not inputs:
            return []
        if self._shm_pool is not None:
            from ..serve.errors import PoolUnavailable
            try:
                return self._shm_pool.map(inputs)
            except PoolUnavailable:
                self._degrade_inline()
        local = self._local_conv()
        return [local(x) for x in inputs]

    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Shut the pool down; later calls execute inline (compiled lazily)."""
        if self._shm_pool is not None:
            self._shm_pool.close()
            self._shm_pool = None
        self.transport = "inline"

    def __enter__(self) -> "BatchRunner":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False
