"""Persistent shared-memory worker pool: zero-pickle transport, supervised.

A plain ``multiprocessing.Pool`` ships every input and output array through
a pickle pipe — each chunk is serialised, copied through the OS pipe in
small writes, and deserialised on the other side, twice per round trip.
This pool moves array bytes through ``multiprocessing.shared_memory``
instead:

* each worker owns an **input ring buffer** (one shm segment the parent
  writes request frames into, head/tail managed parent-side) and an **output
  region** (one shm segment the worker writes results into), so array bytes
  cross the process boundary as a single ``memcpy`` each way;
* the control plane stays on a pipe, but carries only tiny tuples —
  ``("run", offset, shape, dtype)`` / ``("ok", shape, dtype, crc, trace)`` —
  never array data (``trace`` is the worker's drained span events when
  :mod:`repro.obs` tracing is on, ``None`` otherwise);
* workers are **long-lived**: each compiles its :class:`~repro.engine.ConvJob`
  once at startup (plan cache, transformed weights) and serves frames until
  :meth:`ShmWorkerPool.close`, so steady-state requests hit only warm caches.

On top of the transport sits a :class:`WorkerSupervisor` (PR 6) that makes
worker failure a recoverable event instead of a poisoned pool:

* **death detection** — every drive waits on the workers' process sentinels
  alongside their control pipes, and each worker runs a heartbeat thread
  that beats while it computes; a worker that exits *or* goes silent past
  ``heartbeat_timeout`` while holding a job is declared dead;
* **respawn** — dead workers are replaced with fresh processes (capped
  exponential backoff on spawn failure); the replacement compiles the job at
  startup, re-seeding its plan cache, so the pool returns to full strength
  warm;
* **retry** — the dead worker's unacknowledged jobs are re-dispatched to
  surviving workers (convolution is deterministic, so a retried chunk is
  bit-identical), with a per-job retry cap and capped exponential backoff;
  a job that keeps killing workers surfaces as :class:`WorkerCrashed`;
* **typed errors** — a job that raises *inside* a worker surfaces as
  :class:`WorkerJobError` carrying the remote traceback and job index, with
  every sibling error from the same batch attached (none swallowed);
* **deadlines** — :meth:`run`/:meth:`map` accept an absolute monotonic
  ``deadline``; an expired drive terminates + respawns the in-flight workers
  (so no stale reply can poison the next batch) and raises
  :class:`RequestTimeout`;
* **fault injection** — a :class:`~repro.serve.FaultPlan` ships to the
  workers and deterministically kills/delays/drops/corrupts at scripted
  steps; corruption is caught by payload checksums (enabled whenever a plan
  is installed) and retried like a crash.

When no live worker remains and respawning fails, the pool raises
:class:`PoolUnavailable` — the signal callers (``BatchRunner``, ``Server``)
use to degrade to in-process execution.

Segments grow on demand (the parent allocates a bigger segment and tells the
worker to re-attach), so the pool adapts to whatever batch shapes traffic
brings.  :class:`repro.engine.BatchRunner` with ``num_workers > 0``
delegates here.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time
import traceback
import zlib
from collections import deque
from multiprocessing import connection as mp_connection
from multiprocessing import shared_memory

import numpy as np

from ..obs import trace as _trace
from .errors import (PoolUnavailable, RequestTimeout, ServingError,
                     WorkerCrashed, WorkerJobError, deadline_clock)

__all__ = ["ShmWorkerPool", "WorkerSupervisor"]

_ALIGN = 64


def _pick_context(name: str | None) -> multiprocessing.context.BaseContext:
    if name is not None:
        return multiprocessing.get_context(name)
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # platforms without fork
        return multiprocessing.get_context()


def _attach(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without double-registering its cleanup.

    The parent owns every segment's lifetime (it created them); attaching in
    the child must not enrol the segment with the child's resource tracker,
    or the tracker would unlink it a second time at child exit.  Python 3.13
    has ``track=False`` for exactly this; earlier versions need the manual
    unregister (see :func:`_parent_unlink` for the parent-side rebalance).
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:
        seg = shared_memory.SharedMemory(name=name)
        try:
            from multiprocessing import resource_tracker
            resource_tracker.unregister(seg._name, "shared_memory")
        except Exception:  # pragma: no cover
            pass
        return seg


def _parent_unlink(shm: shared_memory.SharedMemory) -> None:
    """Unlink a parent-owned segment, keeping the resource tracker balanced.

    Under the (default) ``fork`` start method the workers share the parent's
    resource-tracker process, so the child-side unregister in :func:`_attach`
    also removed the *parent's* registration; re-register before unlinking so
    the tracker doesn't log a spurious KeyError.
    """
    try:
        from multiprocessing import resource_tracker
        resource_tracker.register(shm._name, "shared_memory")
    except Exception:  # pragma: no cover
        pass
    try:
        shm.unlink()
    except FileNotFoundError:  # pragma: no cover
        pass


def _shm_worker_loop(job, in_name: str, out_name: str, conn, index: int = 0,
                     faults=None, heartbeat_interval: float | None = None,
                     checksum: bool = False) -> None:
    """Long-lived worker: compile the job once, serve frames until 'stop'.

    The heartbeat thread beats only while a job is being computed — that is
    the only window the parent needs liveness proof for, and it keeps an
    idle pool's pipes empty.  Both threads share ``send_lock`` so reply and
    heartbeat frames never interleave on the pipe.

    Before compiling, the worker warms the autotune store from the shared
    on-disk plan cache — a worker serving the ``tuned`` backend (including a
    supervisor respawn) binds pre-measured kernel winners instead of running
    benchmarks of its own — and preloads any prebuilt codegen objects from
    the shared object store, so adopting a winner that names a generated
    kernel never triggers a compile (or a benchmark) inside a worker.  The
    parent can query the resulting counters with an ``("autotune_stats",)``
    control message; codegen counters ride along under a ``"codegen"`` key.

    With :mod:`repro.obs` tracing enabled, the worker records spans locally
    (a ``worker.job`` span around each compute, plus whatever the executor
    records inside it) and ships the drained events back as the last element
    of each reply tuple — the parent absorbs them into its own buffer, and
    because both sides stamp events with the system-wide monotonic clock the
    result is one stitched timeline across processes.
    """
    # Only the coordinating process writes REPRO_TRACE; and under the fork
    # start method this child inherited a copy of the parent's event buffer,
    # which must not be shipped back as if it were worker activity.
    _trace.suppress_export()
    if _trace._ENABLED:
        _trace.reset()
    try:
        from ..engine import autotune as _autotune
        _autotune.warm_disk()
    except Exception:  # pragma: no cover - tuning must never block serving
        _autotune = None
    try:
        from ..kernels import codegen as _codegen
        _codegen.warm_disk()
    except Exception:  # pragma: no cover - codegen must never block serving
        _codegen = None
    conv = job.compile()
    in_shm = _attach(in_name)
    out_shm = _attach(out_name)
    my_faults = faults.for_worker(index) if faults is not None else {}
    send_lock = threading.Lock()
    busy = threading.Event()
    stop = threading.Event()

    def _send(msg) -> None:
        with send_lock:
            conn.send(msg)

    if heartbeat_interval is not None:
        def _beat() -> None:
            while not stop.wait(heartbeat_interval):
                if busy.is_set():
                    try:
                        _send(("hb",))
                    except (BrokenPipeError, OSError):
                        return

        threading.Thread(target=_beat, daemon=True,
                         name=f"shm-worker-{index}-hb").start()

    step = 0
    try:
        while True:
            msg = conn.recv()
            tag = msg[0]
            if tag == "run":
                step += 1
                fault = my_faults.get(step)
                if fault is not None and fault.kind == "kill":
                    os.kill(os.getpid(), signal.SIGKILL)
                _, offset, shape, dtype_str = msg
                busy.set()
                try:
                    try:
                        x = np.ndarray(shape, dtype=np.dtype(dtype_str),
                                       buffer=in_shm.buf, offset=offset)
                        with _trace.span("worker.job", cat="worker",
                                         worker=index, step=step,
                                         shape=str(tuple(shape))):
                            y = np.ascontiguousarray(conv(x))
                        crc = zlib.crc32(y.tobytes()) if checksum else None
                        out_view = np.ndarray(y.shape, dtype=y.dtype,
                                              buffer=out_shm.buf)
                        np.copyto(out_view, y)
                        if fault is not None and fault.kind == "corrupt":
                            raw = np.ndarray((max(y.nbytes, 1),),
                                             dtype=np.uint8, buffer=out_shm.buf)
                            raw[:8] ^= 0xFF
                        if fault is not None and fault.kind == "delay":
                            time.sleep(fault.seconds)
                        if fault is not None and fault.kind == "drop":
                            continue           # no reply, no more heartbeats
                        _send(("ok", y.shape, y.dtype.str, crc,
                               _trace.drain() if _trace._ENABLED else None))
                    except Exception as exc:   # surface, don't kill the pool
                        _send(("err", type(exc).__name__, str(exc),
                               traceback.format_exc(),
                               _trace.drain() if _trace._ENABLED else None))
                finally:
                    busy.clear()
            elif tag == "attach_in":
                in_shm.close()
                in_shm = _attach(msg[1])
                _send(("attached",))
            elif tag == "attach_out":
                out_shm.close()
                out_shm = _attach(msg[1])
                _send(("attached",))
            elif tag == "autotune_stats":
                stats = _autotune.stats_dict() if _autotune is not None else {}
                stats["codegen"] = (_codegen.stats_dict()
                                    if _codegen is not None else {})
                _send(("autotune_stats", stats))
            elif tag == "stop":
                break
    except (EOFError, KeyboardInterrupt):      # parent went away
        pass
    finally:
        stop.set()
        in_shm.close()
        out_shm.close()
        conn.close()


class _InputRing:
    """Parent-side byte-ring allocator over one shared-memory segment.

    Frames are claimed with :meth:`put` and released FIFO with :meth:`pop`
    (workers consume their pipe messages in order, so FIFO release is exact).
    Today :meth:`_Worker.try_send` keeps at most one frame in flight — the
    single-slot *output* region forces that — so the wrap/tail logic below is
    headroom for the multi-slot-output pipelining noted in the ROADMAP, not a
    path current traffic exercises.
    """

    def __init__(self, capacity: int):
        self.shm = shared_memory.SharedMemory(create=True, size=capacity)
        self.capacity = capacity
        self.head = 0
        self.pending: deque[tuple[int, int]] = deque()   # (offset, nbytes)

    def _free_bytes(self) -> int:
        return self.capacity - sum(n for _, n in self.pending)

    def put(self, arr: np.ndarray) -> int | None:
        """Copy ``arr`` into the ring; returns its offset or None if full."""
        nbytes = -(-max(arr.nbytes, 1) // _ALIGN) * _ALIGN
        if nbytes > self._free_bytes():
            return None
        offset = self.head
        if offset + nbytes > self.capacity:              # wrap to the start
            if self.pending and self.pending[0][0] < nbytes:
                return None                              # tail still in the way
            offset = 0
        view = np.ndarray(arr.shape, dtype=arr.dtype, buffer=self.shm.buf,
                          offset=offset)
        np.copyto(view, arr)
        self.head = offset + nbytes
        self.pending.append((offset, nbytes))
        return offset

    def pop(self) -> None:
        self.pending.popleft()

    def destroy(self) -> None:
        self.shm.close()
        _parent_unlink(self.shm)


class _Job:
    """One unit of pool work: an input chunk, its sink, and retry state."""

    __slots__ = ("index", "array", "sink", "retries", "sent_at")

    def __init__(self, index: int, array: np.ndarray, sink):
        self.index = index
        self.array = array
        self.sink = sink
        self.retries = 0
        self.sent_at: float | None = None   # dispatch time (tracing only)


class _Worker:
    """Parent-side handle: process + pipe + rings + in-flight bookkeeping."""

    def __init__(self, ctx, job, ring_bytes: int, out_bytes: int, *,
                 index: int = 0, faults=None,
                 heartbeat_interval: float | None = None,
                 checksum: bool = False):
        self.index = index
        self.dead = False
        self.last_seen = deadline_clock()
        self._cleaned = False
        self.ring = _InputRing(ring_bytes)
        try:
            self.out_shm = shared_memory.SharedMemory(create=True,
                                                      size=out_bytes)
        except BaseException:
            self.ring.destroy()            # don't leak the segment
            raise
        try:
            self.conn, child_conn = ctx.Pipe()
            self.proc = ctx.Process(
                target=_shm_worker_loop,
                args=(job, self.ring.shm.name, self.out_shm.name, child_conn,
                      index, faults, heartbeat_interval, checksum),
                daemon=True)
            self.proc.start()
        except BaseException:              # e.g. process spawn forbidden
            self.ring.destroy()
            self.out_shm.close()
            _parent_unlink(self.out_shm)
            raise
        child_conn.close()
        self.queue: deque[_Job] = deque()     # jobs not yet sent
        self.inflight: deque[_Job] = deque()  # jobs awaiting replies

    @property
    def sentinel(self):
        return self.proc.sentinel

    # -- control-plane recv ---------------------------------------------- #
    def _recv_ctrl(self):
        """Receive the next non-heartbeat control message."""
        while True:
            msg = self.conn.recv()
            self.last_seen = deadline_clock()
            if msg[0] != "hb":
                return msg

    # -- segment growth ------------------------------------------------- #
    def _grow_in(self, min_bytes: int) -> None:
        old = self.ring
        new_cap = max(min_bytes * 2, old.capacity)
        self.ring = _InputRing(new_cap)
        self.conn.send(("attach_in", self.ring.shm.name))
        assert self._recv_ctrl()[0] == "attached"
        old.destroy()

    def _grow_out(self, min_bytes: int) -> None:
        old = self.out_shm
        self.out_shm = shared_memory.SharedMemory(create=True,
                                                  size=max(min_bytes * 2,
                                                           old.size))
        self.conn.send(("attach_out", self.out_shm.name))
        assert self._recv_ctrl()[0] == "attached"
        old.close()
        _parent_unlink(old)

    # -- request / reply ------------------------------------------------- #
    def try_send(self, out_nbytes_for) -> bool:
        """Stage and dispatch the next queued job, if the worker is free.

        At most one frame is in flight per worker: the single-slot output
        region is only safe to rewrite once the parent has copied the
        previous reply out of it (:meth:`receive`), and the next ``run``
        message is what tells the worker that happened.

        Raises ``OSError``/``BrokenPipeError`` when the worker is gone; the
        caller treats that as a death event (the job is already in
        ``inflight`` and will be reclaimed by the supervisor).
        """
        if not self.queue or self.inflight or self.dead:
            return False
        job = self.queue[0]
        chunk = job.array
        need = -(-max(chunk.nbytes, 1) // _ALIGN) * _ALIGN
        if need > self.ring.capacity:
            self._grow_in(need)
        out_need = out_nbytes_for(chunk)
        if out_need > self.out_shm.size:
            self._grow_out(out_need)
        offset = self.ring.put(chunk)
        if offset is None:  # pragma: no cover - capacity grown above
            return False
        self.queue.popleft()
        self.inflight.append(job)
        try:
            self.conn.send(("run", offset, chunk.shape, chunk.dtype.str))
        except BaseException:
            # Keep the ring/inflight bookkeeping consistent for reclamation.
            self.ring.pop()
            raise
        self.last_seen = deadline_clock()
        if _trace._ENABLED:
            job.sent_at = deadline_clock()
        return True

    def receive(self) -> tuple[str, object]:
        """Consume one message; returns ``(kind, payload)``.

        Kinds: ``"hb"`` (heartbeat, payload None), ``"ok"`` (payload: the
        completed job, its sink already called), ``"err"`` (payload:
        ``(job, exc_type, message, remote_traceback)``), ``"corrupt"``
        (payload: the job whose reply failed checksum verification).

        Never raises on worker *errors* — only on transport failure
        (``EOFError``/``OSError``), which the caller treats as worker death.
        """
        msg = self.conn.recv()
        self.last_seen = deadline_clock()
        tag = msg[0]
        if tag == "hb":
            return ("hb", None)
        job = self.inflight.popleft()
        self.ring.pop()
        if tag == "err":
            _, exc_type, message, tb, events = msg
            if events:
                _trace.absorb(events)
            return ("err", (job, exc_type, message, tb))
        _, shape, dtype_str, crc, events = msg
        if events:
            _trace.absorb(events)
        out = np.ndarray(shape, dtype=np.dtype(dtype_str),
                         buffer=self.out_shm.buf)
        if crc is not None and zlib.crc32(out.tobytes()) != crc:
            return ("corrupt", job)
        job.sink(out)                      # sink copies out of the segment
        if _trace._ENABLED and job.sent_at is not None:
            # Dispatch -> reply window, parent-side: brackets the worker's
            # own compute span on the shared timeline.
            _trace.complete("pool.job", job.sent_at,
                            deadline_clock() - job.sent_at, cat="pool",
                            job=job.index, worker=self.index)
        return ("ok", job)

    # -- lifecycle -------------------------------------------------------- #
    def _cleanup(self) -> None:
        if self._cleaned:
            return
        self._cleaned = True
        try:
            self.conn.close()
        except OSError:  # pragma: no cover
            pass
        self.ring.destroy()
        self.out_shm.close()
        _parent_unlink(self.out_shm)

    def stop(self) -> None:
        """Graceful shutdown: ask the worker to exit, then clean up."""
        if self._cleaned:
            return
        if not self.dead:
            try:
                self.conn.send(("stop",))
            except (BrokenPipeError, OSError):  # pragma: no cover
                pass
        self.proc.join(timeout=5)
        if self.proc.is_alive():  # pragma: no cover
            self.proc.terminate()
            self.proc.join(timeout=5)
        self._cleanup()

    def destroy(self) -> None:
        """Forceful teardown for dead or stalled workers."""
        if self.proc.is_alive():
            self.proc.terminate()
            self.proc.join(timeout=1)
            if self.proc.is_alive():  # pragma: no cover - SIGTERM ignored
                self.proc.kill()
                self.proc.join(timeout=5)
        self._cleanup()


class WorkerSupervisor:
    """Detects dead workers, respawns them, and re-dispatches their jobs.

    Owned by a :class:`ShmWorkerPool`; all methods run on the pool's driving
    thread (no internal locking needed).  Counters are exposed through
    :meth:`ShmWorkerPool.stats`.
    """

    def __init__(self, pool: "ShmWorkerPool", *, max_job_retries: int = 2,
                 max_respawn_attempts: int = 3,
                 respawn_backoff_s: float = 0.05,
                 respawn_backoff_cap_s: float = 1.0,
                 retry_backoff_s: float = 0.01,
                 retry_backoff_cap_s: float = 0.25):
        self.pool = pool
        self.max_job_retries = int(max_job_retries)
        self.max_respawn_attempts = int(max_respawn_attempts)
        self.respawn_backoff_s = float(respawn_backoff_s)
        self.respawn_backoff_cap_s = float(respawn_backoff_cap_s)
        self.retry_backoff_s = float(retry_backoff_s)
        self.retry_backoff_cap_s = float(retry_backoff_cap_s)
        self.deaths = 0
        self.restarts = 0
        self.retried_jobs = 0
        self.corrupt_replies = 0

    def bury(self, worker: _Worker, reason: str) -> list[_Job]:
        """Tear a dead/stalled worker down; returns its unacknowledged jobs."""
        orphans = list(worker.inflight) + list(worker.queue)
        worker.inflight.clear()
        worker.queue.clear()
        worker.dead = True
        worker.destroy()
        self.deaths += 1
        _trace.instant("pool.worker_death", cat="fault", worker=worker.index,
                       reason=reason, orphaned_jobs=len(orphans))
        return orphans

    def revive(self, worker: _Worker) -> _Worker | None:
        """Replace a buried worker with a fresh process (backoff on failure).

        The replacement compiles the pool's job at startup — its plan cache
        is warm again before it sees traffic (and under the ``fork`` start
        method it also inherits every plan the parent has lowered since).
        Replacements run *without* the pool's fault plan: scripted faults
        apply to the first generation of each worker slot, so a killed
        worker's replacement is healthy — but payload checksums stay on.
        """
        pool = self.pool
        slot = pool._workers.index(worker)
        delay = self.respawn_backoff_s
        for _ in range(self.max_respawn_attempts):
            try:
                fresh = _Worker(pool._ctx, pool.job, pool.ring_bytes,
                                pool.out_bytes, index=worker.index,
                                faults=None,
                                heartbeat_interval=pool.heartbeat_interval,
                                checksum=pool._checksum)
            except Exception:
                time.sleep(min(delay, self.respawn_backoff_cap_s))
                delay *= 2
                continue
            pool._workers[slot] = fresh
            self.restarts += 1
            _trace.instant("pool.respawn", cat="fault", worker=worker.index)
            return fresh
        _trace.instant("pool.respawn_failed", cat="fault",
                       worker=worker.index,
                       attempts=self.max_respawn_attempts)
        return None

    def backoff_for(self, job: _Job) -> float:
        """Capped exponential backoff before a job's next retry dispatch."""
        return min(self.retry_backoff_s * (2 ** max(job.retries - 1, 0)),
                   self.retry_backoff_cap_s)


class ShmWorkerPool:
    """Supervised long-lived convolution workers on shared-memory transport.

    Parameters
    ----------
    job:
        The :class:`~repro.engine.ConvJob` every worker compiles once.
    num_workers:
        Worker process count (must be >= 1; inline execution is the
        caller's — :class:`~repro.engine.BatchRunner`'s — job).
    ring_bytes:
        Initial input-ring capacity per worker (grown on demand).
    mp_context:
        multiprocessing start method; defaults to ``fork`` where available
        so workers inherit warm caches.
    faults:
        Optional :class:`~repro.serve.FaultPlan` shipped to the workers for
        deterministic chaos testing; also enables payload checksums.
    heartbeat_interval / heartbeat_timeout:
        Workers beat every ``heartbeat_interval`` seconds *while computing*;
        a worker holding a job silent for ``heartbeat_timeout`` is declared
        stalled and replaced.  ``heartbeat_interval=None`` disables the
        heartbeat machinery entirely (bare PR 5 wire behaviour).
    max_job_retries:
        How many times one job may be re-dispatched after worker deaths or
        corrupt replies before surfacing :class:`WorkerCrashed`.
    max_respawn_attempts:
        Spawn attempts (with capped exponential backoff) per dead worker
        before the slot is abandoned; with every slot abandoned the pool
        raises :class:`PoolUnavailable`.
    """

    def __init__(self, job, num_workers: int, ring_bytes: int = 1 << 22,
                 mp_context: str | None = None, *, faults=None,
                 heartbeat_interval: float | None = 0.25,
                 heartbeat_timeout: float | None = 5.0,
                 max_job_retries: int = 2, max_respawn_attempts: int = 3):
        if num_workers < 1:
            raise ValueError("ShmWorkerPool needs at least one worker")
        self._ctx = _pick_context(mp_context)
        self.job = job
        self.num_workers = int(num_workers)
        self.ring_bytes = int(ring_bytes)
        self.out_bytes = int(ring_bytes) // 2
        self.faults = faults
        self._checksum = faults is not None
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_timeout = (None if heartbeat_interval is None
                                  else heartbeat_timeout)
        self._supervisor = WorkerSupervisor(
            self, max_job_retries=max_job_retries,
            max_respawn_attempts=max_respawn_attempts)
        self._workers: list[_Worker] = []
        try:
            for i in range(self.num_workers):
                self._workers.append(
                    _Worker(self._ctx, job, self.ring_bytes, self.out_bytes,
                            index=i, faults=faults,
                            heartbeat_interval=heartbeat_interval,
                            checksum=self._checksum))
        except Exception:
            self.close()
            raise

    # ------------------------------------------------------------------ #
    # Health / introspection
    # ------------------------------------------------------------------ #
    def _live(self) -> list[_Worker]:
        return [w for w in self._workers if not w.dead]

    @property
    def live_workers(self) -> int:
        """Number of workers currently alive (== ``num_workers`` when healthy)."""
        return len(self._live())

    @property
    def healthy(self) -> bool:
        return self.live_workers == self.num_workers

    @property
    def supervisor(self) -> WorkerSupervisor:
        return self._supervisor

    def stats(self) -> dict:
        """Supervision counters: deaths, restarts, retries, corruption."""
        sup = self._supervisor
        return {
            "num_workers": self.num_workers,
            "live_workers": self.live_workers,
            "deaths": sup.deaths,
            "restarts": sup.restarts,
            "retried_jobs": sup.retried_jobs,
            "corrupt_replies": sup.corrupt_replies,
        }

    def autotune_stats(self) -> dict:
        """Per-worker autotune counters, keyed by worker index.

        Each live worker replies with its in-process
        :func:`repro.engine.autotune.stats_dict` — the proof point being
        ``benchmarks_run == 0`` with ``disk_hits > 0`` on a worker (including
        a supervisor respawn) that warmed from the shared on-disk plan cache.
        Workers that die mid-query are skipped.
        """
        out: dict[int, dict] = {}
        for w in self._live():
            try:
                w.conn.send(("autotune_stats",))
                while True:
                    msg = w._recv_ctrl()
                    if msg[0] == "autotune_stats":
                        out[w.index] = msg[1]
                        break
            except (EOFError, BrokenPipeError, OSError):
                continue
        return out

    def kill_worker(self, index: int) -> None:
        """SIGKILL one live worker process (chaos-testing helper)."""
        for w in self._live():
            if w.index == index:
                os.kill(w.proc.pid, signal.SIGKILL)
                return
        raise ValueError(f"no live worker with index {index}")

    def _heal(self) -> None:
        """Respawn any dead worker slots before accepting a new batch."""
        for worker in list(self._workers):
            if worker.dead:
                self._supervisor.revive(worker)

    # ------------------------------------------------------------------ #
    def _out_shape(self, in_shape: tuple) -> tuple:
        """Reply shape for one input chunk, from the job's own protocol.

        Jobs describe their replies (``out_shape``/``out_dtype``, see
        :class:`~repro.engine.ConvJob`) so the pool can size output segments
        for *any* job kind — convolution chunks and gradient shards alike —
        without a worker round trip.
        """
        return tuple(self.job.out_shape(tuple(in_shape)))

    def _out_dtype(self, in_dtype) -> np.dtype:
        return np.dtype(self.job.out_dtype(np.dtype(in_dtype)))

    def _out_nbytes(self, chunk: np.ndarray) -> int:
        shape = self._out_shape(chunk.shape)
        dtype = self._out_dtype(chunk.dtype)
        return int(np.prod(shape)) * dtype.itemsize

    # ------------------------------------------------------------------ #
    # The drive loop (scatter, gather, supervise)
    # ------------------------------------------------------------------ #
    def _wait_timeout(self, busy: list[_Worker], now: float,
                      deadline: float | None) -> float | None:
        candidates = []
        if deadline is not None:
            candidates.append(max(deadline - now, 0.0))
        if self.heartbeat_timeout is not None:
            stalest = min(w.last_seen for w in busy)
            candidates.append(max(stalest + self.heartbeat_timeout - now,
                                  0.01))
        return min(candidates) if candidates else None

    def _drive(self, deadline: float | None = None) -> None:
        """Scatter queued jobs and gather replies until everything drains.

        A worker-side error is *collected*, not raised mid-drain: every
        outstanding reply is still consumed and every queue cleared first, so
        the pool stays usable for the next batch; the first error is raised
        once the wire is quiet again, with every sibling error attached.
        Worker deaths (sentinel, EOF, or heartbeat silence) trigger
        respawn-and-retry instead of an error, up to the per-job retry cap.
        """
        sup = self._supervisor
        failures: list[ServingError] = []

        def fail(exc: ServingError) -> None:
            if not failures:
                for w in self._workers:        # abandon unsent work
                    w.queue.clear()
            failures.append(exc)

        def retry_jobs(jobs: list[_Job], reason: str) -> None:
            for job_ in jobs:
                job_.retries += 1
                if job_.retries > sup.max_job_retries:
                    fail(WorkerCrashed(
                        f"job {job_.index} abandoned after "
                        f"{job_.retries - 1} retries ({reason})",
                        job_index=job_.index, retries=job_.retries - 1))
                    continue
                if failures:                   # batch already failing
                    continue
                live = self._live()
                if not live:
                    raise PoolUnavailable(
                        f"no live workers left to retry job {job_.index} "
                        f"({reason})")
                sup.retried_jobs += 1
                _trace.instant("pool.retry", cat="fault", job=job_.index,
                               attempt=job_.retries, reason=reason)
                time.sleep(sup.backoff_for(job_))
                target = min(live,
                             key=lambda w: len(w.queue) + len(w.inflight))
                target.queue.append(job_)

        def on_dead(w: _Worker, reason: str) -> None:
            orphans = sup.bury(w, reason)
            sup.revive(w)
            retry_jobs(orphans, reason)

        def pump(w: _Worker) -> None:
            try:
                while not w.dead and w.conn.poll():
                    kind, payload = w.receive()
                    if kind in ("ok", "hb"):
                        continue
                    if kind == "corrupt":
                        sup.corrupt_replies += 1
                        retry_jobs([payload], "corrupt reply payload")
                    elif kind == "err":
                        job_, exc_type, message, tb = payload
                        fail(WorkerJobError(
                            f"shm worker failed: {exc_type}: {message}",
                            job_index=job_.index, worker_index=w.index,
                            exc_type=exc_type, remote_traceback=tb))
            except (EOFError, BrokenPipeError, OSError):
                on_dead(w, "worker process died")

        try:
            while True:
                live = self._live()
                if not live:
                    if any(w.queue or w.inflight for w in self._workers):
                        raise PoolUnavailable(
                            "no live workers remain and respawning failed")
                    break
                if not failures:
                    for w in live:
                        if w.dead:
                            continue
                        try:
                            w.try_send(self._out_nbytes)
                        except (BrokenPipeError, EOFError, OSError):
                            on_dead(w, "control pipe closed at dispatch")
                busy = [w for w in self._live() if w.inflight]
                if not busy:
                    if any(w.queue for w in self._live()) and not failures:
                        continue               # redistributed work to send
                    break
                now = deadline_clock()
                if deadline is not None and now >= deadline:
                    self._expire_inflight()
                    raise RequestTimeout(
                        "batch deadline expired with jobs still in flight",
                        deadline=deadline, now=now)
                ready = set(mp_connection.wait(
                    [w.conn for w in busy] + [w.sentinel for w in busy],
                    timeout=self._wait_timeout(busy, now, deadline)))
                for w in busy:
                    if not w.dead and (w.conn in ready or w.sentinel in ready):
                        pump(w)
                if self.heartbeat_timeout is not None:
                    now = deadline_clock()
                    for w in list(self._live()):
                        if w.inflight and \
                                now - w.last_seen > self.heartbeat_timeout:
                            on_dead(w, "stalled: no heartbeat for "
                                       f"{now - w.last_seen:.2f}s")
        except ServingError:
            raise
        except BaseException:
            # Parent-side failure (e.g. a chunk whose plan won't lower):
            # quiesce the wire before propagating, same as the worker-error
            # path, so the next batch doesn't read this batch's replies.
            self._quiesce()
            raise
        if failures:
            primary = failures[0]
            if isinstance(primary, WorkerJobError):
                primary.siblings = [e for e in failures[1:]
                                    if isinstance(e, WorkerJobError)]
            raise primary

    def _expire_inflight(self) -> None:
        """Deadline hit: replace in-flight workers so no stale reply lands.

        A worker still computing an expired batch would eventually push a
        reply the *next* batch could mistake for its own; terminating and
        respawning it is the only way to guarantee a quiet wire.  Queued but
        unsent jobs are simply dropped.
        """
        for w in self._workers:
            w.queue.clear()
        for w in list(self._workers):
            if not w.dead and w.inflight:
                _trace.instant("pool.deadline_abort", cat="fault",
                               worker=w.index, inflight=len(w.inflight))
                self._supervisor.bury(w, "deadline expired")
                self._supervisor.revive(w)

    def _quiesce(self, grace: float = 5.0) -> None:
        """Drain or replace every worker with in-flight work (error path)."""
        for w in self._workers:
            w.queue.clear()
        for w in list(self._workers):
            end = deadline_clock() + grace
            while w.inflight and not w.dead:
                try:
                    if not w.conn.poll(max(end - deadline_clock(), 0.0)):
                        raise TimeoutError
                    w.receive()
                except BaseException:          # worker gone or wedged
                    self._supervisor.bury(w, "quiesce")
                    self._supervisor.revive(w)
                    break

    # ------------------------------------------------------------------ #
    def run(self, x: np.ndarray, chunk_size: int | None = None,
            deadline: float | None = None) -> np.ndarray:
        """One batch, sharded along the batch axis across the workers.

        ``deadline`` is an absolute :func:`time.monotonic` timestamp; a
        drive still in flight past it raises :class:`RequestTimeout` (the
        stalled workers are replaced, so later batches are unaffected).
        Chunk boundaries depend only on ``num_workers``, never on the number
        of currently-live workers, so results are bit-identical regardless
        of which worker (or retry) computed each chunk.
        """
        x = np.ascontiguousarray(x)
        n = x.shape[0]
        if n == 0:
            # Nothing to shard: empty result of the right shape, no workers.
            shape = self._out_shape(x.shape)
            return np.empty(shape, dtype=self._out_dtype(x.dtype))
        self._heal()
        live = self._live()
        if not live:
            raise PoolUnavailable("worker pool has no live workers")
        chunk = chunk_size or -(-n // self.num_workers)
        starts = list(range(0, n, chunk))
        out_shape = self._out_shape(x.shape)
        result = np.empty(out_shape, dtype=self._out_dtype(x.dtype))

        def make_sink(row0: int, rows: int):
            def sink(arr: np.ndarray) -> None:
                np.copyto(result[row0:row0 + rows], arr)
            return sink

        for idx, start in enumerate(starts):
            piece = x[start:start + chunk]
            job = _Job(idx, piece, make_sink(start, piece.shape[0]))
            live[idx % len(live)].queue.append(job)
        with _trace.span("pool.run", cat="pool", jobs=len(starts),
                         batch=int(n)):
            self._drive(deadline=deadline)
        return result

    def map(self, inputs, deadline: float | None = None) -> list[np.ndarray]:
        """A stream of independent input arrays (one result per input)."""
        arrays = [np.ascontiguousarray(a) for a in inputs]
        results: list[np.ndarray | None] = [None] * len(arrays)
        self._heal()
        live = self._live()
        if not live and arrays:
            raise PoolUnavailable("worker pool has no live workers")

        def make_sink(i: int):
            def sink(arr: np.ndarray) -> None:
                results[i] = arr.copy()
            return sink

        for i, arr in enumerate(arrays):
            live[i % len(live)].queue.append(_Job(i, arr, make_sink(i)))
        with _trace.span("pool.map", cat="pool", jobs=len(arrays)):
            self._drive(deadline=deadline)
        return results

    # ------------------------------------------------------------------ #
    def close(self) -> None:
        for worker in self._workers:
            worker.stop()
        self._workers = []

    def __enter__(self) -> "ShmWorkerPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    def __del__(self):  # pragma: no cover - belt and braces
        try:
            self.close()
        except Exception:
            pass
