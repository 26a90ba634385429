"""BatchRunner: the one owner of a worker pool, and of its inline stand-in.

The kernel registry is the seam this rides on: a worker is just another
process with the same backends registered, so the parent ships a picklable
pool *job* — :class:`repro.serve.ModelJob` for a network,
:class:`repro.train.GradStepJob` for a gradient shard — and each worker
compiles it exactly once.  Because lowering goes through the shared plan
cache with the same keys the parent uses, a worker lowers each input shape
once and every later chunk is a cache hit; with the (default, where
available) ``fork`` start method workers even inherit plans the parent had
already lowered.

With ``num_workers > 0`` the runner delegates to
:class:`repro.serve.ShmWorkerPool`: supervised long-lived workers fed
through ``multiprocessing.shared_memory`` ring buffers.  When the pool
cannot be created (no shared memory, process spawning forbidden) the runner
executes inline instead of failing construction, and a pool that later
loses every worker for good (:class:`~repro.serve.PoolUnavailable` after
the supervisor's respawn attempts are exhausted) likewise degrades to
inline mid-run instead of failing the batch.  Inline execution cuts the
same :func:`~repro.serve.pool.chunk_bounds` chunks the pool cuts, so a
degraded result is bit-identical to the pooled one.  ``num_workers=0``
executes inline in the calling process as one chunk.
:attr:`BatchRunner.transport` reports ``"shm"`` or ``"inline"``.
"""

from __future__ import annotations

import threading

import numpy as np

from ..obs import trace as _trace

__all__ = ["BatchRunner"]


class BatchRunner:
    """Runs a pool job over batches and frame streams, optionally sharded.

    Parameters
    ----------
    job:
        The pool job to run (see :mod:`repro.serve.pool`).
    num_workers:
        ``0`` (default) executes inline; ``> 0`` spawns a shared-memory
        worker pool whose workers each compile ``job`` once.
    pool_options:
        Forwarded to :class:`~repro.serve.ShmWorkerPool`: ``mp_context``,
        ``faults``, ``heartbeat_interval``/``heartbeat_timeout``,
        ``max_job_retries``, ``max_respawn_attempts``, ``ring_bytes``.
    """

    def __init__(self, job, num_workers: int = 0, **pool_options):
        self.job = job
        self.num_workers = int(num_workers)
        self._pool = None
        self._local = None                 # compiled lazily on first use
        # A pool is driven by one thread at a time (Server(num_threads>1)
        # calls infer concurrently).
        self._lock = threading.Lock()
        if self.num_workers > 0:
            from ..serve.pool import ShmWorkerPool
            try:
                self._pool = ShmWorkerPool(job, self.num_workers,
                                           **pool_options)
            except (OSError, ValueError):
                # No shared memory, process spawning forbidden, or no such
                # start method here: execute inline instead of failing
                # construction.  A misspelt pool option still raises.
                pass

    @property
    def transport(self) -> str:
        return "inline" if self._pool is None else "shm"

    @property
    def degraded(self) -> bool:
        """True when a sharded runner executes inline (pool lost or never
        started)."""
        return self.num_workers > 0 and self._pool is None

    def pool_stats(self) -> dict:
        """The pool's supervision counters; ``{}`` while inline."""
        return {} if self._pool is None else self._pool.stats()

    def _compiled(self):
        if self._local is None:
            self._local = self.job.compile()
        return self._local

    def _degrade_inline(self) -> None:
        """The shm pool is gone for good: fall back to in-process execution.

        Triggered by :class:`~repro.serve.PoolUnavailable` (every worker
        dead, respawning failed — e.g. process spawning became forbidden
        mid-run).  Partial pool results are discarded wholesale: the inline
        path recomputes every chunk, which is free of side effects because
        jobs are pure functions of their inputs.
        """
        self.close()
        _trace.instant("runner.degraded_inline", cat="fault")

    # ------------------------------------------------------------------ #
    def infer(self, x: np.ndarray, deadline: float | None = None) -> np.ndarray:
        """One (possibly large) batch, sharded along the batch axis.

        ``deadline`` is an absolute :func:`~repro.serve.errors.deadline_clock`
        timestamp: a batch whose deadline passed before it started (say,
        while another thread held the runner) is not run, and the pool
        aborts a drive still in flight past it; both raise
        :class:`~repro.serve.RequestTimeout`.
        """
        from ..serve.errors import PoolUnavailable, RequestTimeout, deadline_clock
        from ..serve.pool import chunk_bounds
        x = np.asarray(x)
        n = x.shape[0]
        if n == 0:
            # Empty batch: no shards, no worker round trips.
            return np.empty(self.job.out_shape(x.shape),
                            dtype=self.job.out_dtype(x.dtype))
        with _trace.span("runner.infer", cat="pool", transport=self.transport,
                         batch=int(n)), self._lock:
            now = deadline_clock()
            if deadline is not None and now >= deadline:
                raise RequestTimeout("deadline expired before the run",
                                     deadline=deadline, now=now)
            if self._pool is not None:
                try:
                    return self._pool.run(x, deadline=deadline)
                except PoolUnavailable:
                    self._degrade_inline()
            compiled = self._compiled()
            chunks = [compiled(x[lo:hi])
                      for lo, hi in chunk_bounds(n, self.num_workers)]
            return chunks[0] if len(chunks) == 1 else np.concatenate(chunks)

    def map(self, inputs) -> list[np.ndarray]:
        """A stream of independent input arrays (one result per input)."""
        inputs = [np.asarray(x) for x in inputs]
        if not inputs:
            return []
        with self._lock:
            if self._pool is not None:
                from ..serve.errors import PoolUnavailable
                try:
                    return self._pool.map(inputs)
                except PoolUnavailable:
                    self._degrade_inline()
            compiled = self._compiled()
            return [compiled(x) for x in inputs]

    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Shut the pool down; later calls execute inline (compiled lazily)."""
        if self._pool is not None:
            self._pool.close()
            self._pool = None

    def __enter__(self) -> "BatchRunner":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False
