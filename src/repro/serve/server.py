"""Synchronous model server: micro-batched inference with latency stats.

:class:`Server` ties the serving pieces together:

* a :class:`~repro.serve.CompiledModel` (or any ``batch -> batch`` callable)
  does the actual math;
* a :class:`~repro.serve.MicroBatcher` coalesces :meth:`submit`-ed
  single-image requests into batches under a latency deadline, per shape;
* one or more worker threads block on the batcher's condition variable
  (no polling), stack each ready batch, run the model, and fulfil the
  request handles;
* every completed request feeds the latency/throughput accounting exposed by
  :meth:`stats` (p50/p99 latency, mean batch size, requests per second,
  queue watermark, shed/timeout/fallback counters).

Failure modes and guarantees (PR 6):

* **Bounded admission** — ``max_pending`` caps the queue; a submit past it
  raises :class:`~repro.serve.ServerOverloaded` immediately (load shedding)
  rather than letting latency grow without bound.
* **Deadlines** — ``submit(x, deadline=0.5)`` attaches an end-to-end budget:
  expired requests are failed with :class:`~repro.serve.RequestTimeout`
  *before* dispatch (never computed and discarded), and the serving loop
  forwards the batch's tightest remaining deadline to the model as its
  ``deadline=`` keyword (:class:`~repro.serve.CompiledModel` honours it,
  aborting between steps).  :meth:`infer`'s timeout rides the same
  path and cancels the queued request on expiry, so no orphaned work stays
  behind.
* **Graceful degradation** — when the primary model raises
  :class:`~repro.serve.PoolUnavailable` (its worker pool died and could not
  be respawned), the batch is transparently re-run on the in-process
  ``fallback`` model if one was given; the fall-back count is visible in
  :meth:`stats`.
* **At-most-once vs retried execution** — a request is computed at most
  once by *this* server; retries below the model boundary (a supervised
  :class:`~repro.serve.ShmWorkerPool` re-dispatching a dead worker's chunk)
  are invisible here and bit-exact by construction.

``close()`` shuts down gracefully: the batcher stops accepting work, the
worker threads drain everything already queued, and only then exit — the
condition-variable wakeup makes shutdown immediate, not quantized to a poll
interval.
"""

from __future__ import annotations

import threading
import time

import numpy as np

from ..obs import metrics as _metrics
from ..obs import profile as _obs_profile
from ..obs import trace as _trace
from .batcher import InferenceRequest, MicroBatcher
from .errors import PoolUnavailable, RequestTimeout, deadline_clock

__all__ = ["Server", "ServerStats"]


class ServerStats:
    """Rolling latency/throughput counters (thread-safe).

    Latencies live in a preallocated :class:`repro.obs.LatencyWindow` ring
    (an array store plus an index bump per sample — no growing list, no
    periodic slice), and both recording entry points — batched and direct —
    funnel through one :meth:`_record` path.
    """

    def __init__(self, window: int = 10000):
        self._lock = threading.Lock()
        self._latencies = _metrics.LatencyWindow(window)
        self.requests = 0
        self.batches = 0
        self.batched_requests = 0
        self.timeouts = 0
        self.fallbacks = 0
        self._started_at = time.perf_counter()

    def _record(self, n_requests: int, latencies, *, batched: bool) -> None:
        """The single recording path shared by batch and direct traffic."""
        with self._lock:
            self.requests += int(n_requests)
            if batched:
                self.batches += 1
                self.batched_requests += int(n_requests)
            for latency_s in latencies:
                self._latencies.record(latency_s)

    def record_batch(self, requests: list[InferenceRequest]) -> None:
        self._record(len(requests),
                     [r.latency_s for r in requests if r.latency_s is not None],
                     batched=True)

    def record_direct(self, batch_size: int, latency_s: float) -> None:
        self._record(batch_size, [latency_s], batched=False)

    def record_timeout(self, n: int = 1) -> None:
        with self._lock:
            self.timeouts += n

    def record_fallback(self) -> None:
        with self._lock:
            self.fallbacks += 1

    def snapshot(self) -> dict:
        with self._lock:
            elapsed = max(time.perf_counter() - self._started_at, 1e-9)
            out = {
                "requests": self.requests,
                "batches": self.batches,
                "mean_batch_size": (self.batched_requests / self.batches
                                    if self.batches else 0.0),
                "throughput_rps": self.requests / elapsed,
                "timeouts": self.timeouts,
                "fallbacks": self.fallbacks,
            }
            if len(self._latencies):
                p50, p95, p99 = self._latencies.percentile((50, 95, 99))
                out["latency_p50_ms"] = p50 * 1e3
                out["latency_p95_ms"] = p95 * 1e3
                out["latency_p99_ms"] = p99 * 1e3
            return out


class Server:
    """Synchronous serving facade over a compiled model.

    Parameters
    ----------
    model:
        A :class:`~repro.serve.CompiledModel` or any callable
        ``fn(batch, deadline=None)`` mapping an NCHW batch to an output
        batch.  ``deadline`` is the batch's tightest absolute request
        deadline on :func:`~repro.serve.errors.deadline_clock` (``None``
        when no request set one); a model may ignore it or raise
        :class:`~repro.serve.RequestTimeout` once it passes.
    max_batch_size / max_delay_ms:
        Micro-batching policy (see :class:`~repro.serve.MicroBatcher`).
    num_threads:
        Worker threads draining the batcher.  One is right for the GIL-bound
        numpy pipeline; more only helps when the model itself releases the
        GIL for long stretches (large BLAS calls).
    max_pending:
        Admission cap: total queued requests past which :meth:`submit`
        sheds load with :class:`~repro.serve.ServerOverloaded`
        (``None`` = unbounded, the pre-PR 6 behaviour).
    fallback:
        Optional in-process model used when ``model`` raises
        :class:`~repro.serve.PoolUnavailable` — the graceful-degradation
        path for pool-backed models.
    """

    def __init__(self, model, *, max_batch_size: int = 8,
                 max_delay_ms: float = 2.0, num_threads: int = 1,
                 max_pending: int | None = None, fallback=None):
        self._infer = model.infer if hasattr(model, "infer") else model
        self.model = model
        self.fallback = fallback
        self._fallback_infer = (None if fallback is None else
                                (fallback.infer if hasattr(fallback, "infer")
                                 else fallback))
        self.batcher = MicroBatcher(max_batch_size=max_batch_size,
                                    max_delay_ms=max_delay_ms,
                                    max_pending=max_pending)
        self.stats_ = ServerStats()
        self._threads = [
            threading.Thread(target=self._serve_loop, daemon=True,
                             name=f"repro-serve-{i}")
            for i in range(max(int(num_threads), 1))]
        self._closed = False
        for thread in self._threads:
            thread.start()

    # ------------------------------------------------------------------ #
    # Serving loop
    # ------------------------------------------------------------------ #
    def _serve_loop(self) -> None:
        # next_batch(timeout=None) blocks on the batcher's condition variable
        # until work arrives or close() drains — no poll-interval quantization
        # of first-request latency or shutdown.
        while True:
            batch = self.batcher.next_batch()
            if batch is None:                  # closed and fully drained
                return
            self._run_batch(batch)

    def _batch_deadline(self, batch: list[InferenceRequest]) -> float | None:
        deadlines = [r.deadline for r in batch if r.deadline is not None]
        return min(deadlines) if deadlines else None

    def _run_batch(self, batch: list[InferenceRequest]) -> None:
        deadline = self._batch_deadline(batch)
        with _trace.span("serve.batch", cat="serve", batch=len(batch)):
            try:
                stacked = np.stack([request.x for request in batch])
                try:
                    out = self._infer(stacked, deadline=deadline)
                except PoolUnavailable:
                    # The model's worker pool is gone for good: degrade to the
                    # in-process fallback rather than failing the batch.
                    if self._fallback_infer is None:
                        raise
                    self.stats_.record_fallback()
                    _trace.instant("serve.fallback", cat="fault",
                                   batch=len(batch))
                    out = self._fallback_infer(stacked)
                for i, request in enumerate(batch):
                    request.set_result(out[i])
            except RequestTimeout as exc:
                # Batch-granularity deadline: the tightest request deadline
                # aborted the whole batch (see the module docstring).
                self.stats_.record_timeout(len(batch))
                _trace.instant("serve.batch_timeout", cat="fault",
                               batch=len(batch))
                for request in batch:
                    request.set_error(exc)
            except BaseException as exc:  # propagate to every waiting caller
                for request in batch:
                    request.set_error(exc)
        self.stats_.record_batch(batch)

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def submit(self, x: np.ndarray,
               deadline: float | None = None) -> InferenceRequest:
        """Enqueue one ``(C, H, W)`` image; returns a waitable handle.

        ``deadline`` (seconds from now) bounds the request end to end: if it
        is still queued when the deadline passes it is failed with
        :class:`RequestTimeout` without being computed, and the remaining
        budget is propagated to deadline-aware models.
        """
        if self._closed:
            raise RuntimeError("server is closed")
        return self.batcher.submit(x, deadline_s=deadline)

    def infer(self, x: np.ndarray, timeout: float | None = 30.0) -> np.ndarray:
        """Submit one image and block for its result.

        ``timeout`` doubles as the request's end-to-end deadline; on expiry
        the queued request is cancelled (the dispatch loop will skip it — no
        orphaned work is computed and discarded) and
        :class:`RequestTimeout` is raised.
        """
        request = self.submit(x, deadline=timeout)
        try:
            return request.result(timeout)
        except RequestTimeout as exc:
            self.stats_.record_timeout()
            request.cancel(exc)
            raise

    def infer_batch(self, x: np.ndarray) -> np.ndarray:
        """Synchronous whole-batch inference, bypassing the queue.

        Still recorded in the server stats (as one direct batch), and still
        covered by the pool-unavailable fallback path.
        """
        if self._closed:
            raise RuntimeError("server is closed")
        start = time.perf_counter()
        stacked = np.asarray(x)
        with _trace.span("serve.batch_direct", cat="serve",
                         batch=int(stacked.shape[0])):
            try:
                out = self._infer(stacked)
            except PoolUnavailable:
                if self._fallback_infer is None:
                    raise
                self.stats_.record_fallback()
                _trace.instant("serve.fallback", cat="fault",
                               batch=int(stacked.shape[0]))
                out = self._fallback_infer(stacked)
        self.stats_.record_direct(stacked.shape[0],
                                  time.perf_counter() - start)
        return out

    def stats(self) -> dict:
        """Throughput, latency, and robustness counters snapshot.

        Besides the serving counters, exposes the kernel-selection state of
        this process as one :data:`repro.obs.REGISTRY` collect: the autotune
        store counters (``"autotune"``), the plan cache (``"plan_cache"``)
        and the codegen object store (``"codegen_cache"``) — each with
        unified ``hits``/``misses`` keys alongside their original
        fine-grained counters — so which kernels serve and where they came
        from (memory, disk, benchmark, compile) is observable per server.
        With :mod:`repro.obs` profiling enabled, ``"profile"`` carries the
        per-plan kernel wall-time report.  Pool workers are separate
        processes with their own counters; query those through
        ``ShmWorkerPool.autotune_stats()``.
        """
        out = self.stats_.snapshot()
        out["queue_depth"] = self.batcher.pending()
        out["queue_high_watermark"] = self.batcher.high_watermark
        out["queue_limit"] = self.batcher.max_pending
        out["shed"] = self.batcher.shed
        out["expired_in_queue"] = self.batcher.expired
        out["cancelled_skipped"] = self.batcher.cancelled_skipped
        out.update(_metrics.REGISTRY.collect())
        if _obs_profile.enabled():
            out["profile"] = _obs_profile.report()
        return out

    # ------------------------------------------------------------------ #
    def close(self, timeout: float = 10.0) -> None:
        """Graceful shutdown: drain queued requests, then stop the threads."""
        if self._closed:
            return
        self._closed = True
        self.batcher.close()
        for thread in self._threads:
            thread.join(timeout)

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False
