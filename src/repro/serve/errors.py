"""Typed failure semantics for the serving layer.

Before this module existed, every serving failure surfaced as a stringified
``RuntimeError`` (worker errors), a bare ``TimeoutError`` (slow requests), or
not at all (overload just queued unboundedly).  Callers could not tell a
crashed worker from a bad input from a missed deadline — let alone retry the
right one.  These exception types make each failure mode first-class:

* :class:`WorkerJobError` — a job *executed* in a worker and raised; carries
  the worker's remote traceback text, the failing job index, and every
  sibling error from the same batch (nothing is silently swallowed).
* :class:`WorkerCrashed` — a worker *died* (SIGKILL, OOM, hang) and the job
  exhausted its retries on other workers.
* :class:`RequestTimeout` — a request's deadline expired; subclasses
  :class:`TimeoutError` so pre-existing ``except TimeoutError`` callers keep
  working.
* :class:`ServerOverloaded` — bounded admission rejected the request (load
  shedding); carries the queue depth and limit so clients can back off.
* :class:`PoolUnavailable` — the pool has no live workers and respawning
  failed; the signal :class:`~repro.engine.BatchRunner` uses to degrade to
  in-process execution.

Deadlines everywhere in this package are **absolute** ``time.monotonic()``
timestamps (see :func:`deadline_clock`); public entry points that take a
relative ``deadline=`` seconds value convert once at admission.
"""

from __future__ import annotations

import time

__all__ = [
    "ServingError",
    "WorkerJobError",
    "WorkerCrashed",
    "RequestTimeout",
    "RequestCancelled",
    "ServerOverloaded",
    "PoolUnavailable",
    "deadline_clock",
]

#: The clock deadlines are measured against (absolute, monotonic seconds).
deadline_clock = time.monotonic


class ServingError(RuntimeError):
    """Base class for every typed serving-layer failure.

    Subclasses :class:`RuntimeError` so code written against the old
    stringified errors (``except RuntimeError``) still catches these.
    """


class WorkerJobError(ServingError):
    """A job raised inside a worker process.

    Attributes
    ----------
    job_index:
        Index of the failing job in the submitted batch/stream.
    worker_index:
        Which pool worker executed it.
    exc_type:
        The remote exception's class name (the object itself may not be
        picklable; the name and traceback text always survive the pipe).
    remote_traceback:
        The worker's full ``traceback.format_exc()`` text.
    siblings:
        Every *other* :class:`WorkerJobError` collected from the same drive —
        a multi-worker batch can fail in several places at once and no error
        is swallowed.
    """

    def __init__(self, message: str, *, job_index: int, worker_index: int,
                 exc_type: str = "Exception", remote_traceback: str = "",
                 siblings: list["WorkerJobError"] | None = None):
        super().__init__(message)
        self.job_index = job_index
        self.worker_index = worker_index
        self.exc_type = exc_type
        self.remote_traceback = remote_traceback
        self.siblings: list[WorkerJobError] = list(siblings or [])

    def __str__(self) -> str:
        base = super().__str__()
        parts = [f"{base} (job {self.job_index}, worker {self.worker_index})"]
        if self.remote_traceback:
            parts.append("--- remote traceback ---\n"
                         + self.remote_traceback.rstrip())
        if self.siblings:
            parts.append(f"[+{len(self.siblings)} more worker error(s): "
                         + "; ".join(str(s.args[0]) for s in self.siblings)
                         + "]")
        return "\n".join(parts)


class WorkerCrashed(ServingError):
    """A worker process died and the job could not be retried to success."""

    def __init__(self, message: str, *, job_index: int | None = None,
                 worker_index: int | None = None, retries: int = 0):
        super().__init__(message)
        self.job_index = job_index
        self.worker_index = worker_index
        self.retries = retries


class RequestTimeout(ServingError, TimeoutError):
    """A request (or batch) missed its deadline.

    Subclasses :class:`TimeoutError`: callers of the original
    ``InferenceRequest.result`` API keep working unmodified.
    """

    def __init__(self, message: str = "request deadline expired", *,
                 deadline: float | None = None, now: float | None = None):
        super().__init__(message)
        self.deadline = deadline
        self.now = now


class RequestCancelled(ServingError):
    """The caller cancelled the request before it was computed."""


class ServerOverloaded(ServingError):
    """Bounded admission rejected the request (load shedding).

    Attributes
    ----------
    pending / limit:
        Queue depth at rejection time and the configured cap, so clients can
        implement informed backoff.
    """

    def __init__(self, message: str = "server overloaded", *,
                 pending: int = 0, limit: int = 0):
        super().__init__(f"{message} ({pending} pending >= limit {limit})")
        self.pending = pending
        self.limit = limit


class PoolUnavailable(ServingError):
    """No live workers remain and respawning failed.

    :class:`~repro.engine.BatchRunner` treats this as the trigger for
    graceful degradation to in-process execution rather than a hard
    failure; anything else that raises it fails its requests.
    """
