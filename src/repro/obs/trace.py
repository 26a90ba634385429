"""Low-overhead span tracer with Chrome-trace-event export.

Design constraints, in order:

1. **Disabled is free.**  Tracing defaults to off; every instrumentation
   site guards on the module-level ``_ENABLED`` flag (one attribute load)
   and the :func:`span` fast path returns a shared no-op context manager,
   so the fully-disabled cost per call site is a flag check.
2. **Enabled is cheap.**  Events are compact tuples written into a
   preallocated ring buffer; slot allocation is a single
   ``itertools.count`` draw (atomic under the GIL), so concurrent threads
   never contend on a lock to record.  Timestamps come from
   ``time.monotonic()`` — on Linux that is ``CLOCK_MONOTONIC``, whose
   epoch is system-wide, which is what makes **cross-process stitching**
   work: a worker process's span timestamps are directly comparable to
   the parent's, so shipping the worker's raw events back over the
   control pipe (:func:`drain` in the worker, :func:`absorb` in the
   parent) yields one coherent timeline.
3. **Standard output format.**  :func:`export` writes Chrome trace event
   JSON (``{"traceEvents": [...]}``, timestamps in microseconds) loadable
   in Perfetto or ``chrome://tracing``.

Span nesting is tracked per thread (thread-local stack) purely to stamp a
``depth`` arg on each event; the Chrome format itself reconstructs nesting
from ``ts``/``dur`` containment per ``(pid, tid)`` track.

Environment:

* ``REPRO_OBS=on`` enables tracing (and profiling) at import time.
* ``REPRO_TRACE=<path>`` exports the ring buffer to ``<path>`` at process
  exit (only in the process that owns the trace — worker processes call
  :func:`suppress_export` so they never clobber the parent's file).
"""

from __future__ import annotations

import atexit
import itertools
import json
import os
import threading
import time

__all__ = [
    "ENV_OBS", "ENV_TRACE", "DEFAULT_CAPACITY",
    "enabled", "enable", "disable", "suppress_export",
    "span", "instant", "complete", "now",
    "drain", "absorb", "events_snapshot", "reset", "dropped",
    "set_capacity", "capacity", "to_chrome", "export",
]

ENV_OBS = "REPRO_OBS"
ENV_TRACE = "REPRO_TRACE"
DEFAULT_CAPACITY = 1 << 16


def _env_on(value: str | None) -> bool:
    return (value or "").strip().lower() in ("1", "on", "true", "yes")


_ENABLED = _env_on(os.environ.get(ENV_OBS))
_EXPORT_SUPPRESSED = False

_capacity = DEFAULT_CAPACITY
_events: list = [None] * _capacity
_slots = itertools.count()
_lock = threading.Lock()       # guards drain/reset vs. snapshot only
_tls = threading.local()


def enabled() -> bool:
    return _ENABLED


def enable() -> None:
    global _ENABLED
    _ENABLED = True


def disable() -> None:
    global _ENABLED
    _ENABLED = False


def suppress_export() -> None:
    """Disarm the atexit ``REPRO_TRACE`` export in this process.

    Called by worker processes (the shm pool's worker entry point) so only
    the coordinating process writes the trace file.
    """
    global _EXPORT_SUPPRESSED
    _EXPORT_SUPPRESSED = True


def now() -> float:
    """Monotonic timestamp in seconds (system-wide base on Linux)."""
    return time.monotonic()


# --------------------------------------------------------------------- #
# Event store
# --------------------------------------------------------------------- #
# Event tuple layout (kept flat and picklable for the control-pipe hop):
#   (ph, name, cat, ts_us, dur_us, pid, tid, args_or_None)
# ph is "X" (complete) or "i" (instant); ts/dur are floats in microseconds.

def _store(event: tuple) -> None:
    _events[next(_slots) % _capacity] = event


def set_capacity(n: int) -> None:
    """Resize the ring buffer (clears any recorded events)."""
    global _capacity, _events, _slots
    with _lock:
        _capacity = max(int(n), 1)
        _events = [None] * _capacity
        _slots = itertools.count()


def capacity() -> int:
    return _capacity


def _count_value() -> int:
    # itertools.count has no peek; reduce() exposes the next value without
    # consuming it.
    return _slots.__reduce__()[1][0]


def _snapshot_locked() -> list:
    n = _count_value()
    if n <= _capacity:
        return [e for e in _events[:n] if e is not None]
    head = n % _capacity
    return [e for e in _events[head:] + _events[:head] if e is not None]


def events_snapshot() -> list:
    """Recorded events oldest-first, without clearing the buffer."""
    with _lock:
        return _snapshot_locked()


def drain() -> list:
    """Return all recorded events and clear the buffer.

    Workers call this after each job and ship the result back over the
    control pipe; the parent feeds it to :func:`absorb`.
    """
    global _events, _slots
    with _lock:
        out = _snapshot_locked()
        _events = [None] * _capacity
        _slots = itertools.count()
        return out


def absorb(events) -> None:
    """Merge events drained from another process into this buffer.

    Events keep their original pid/tid, so the exported trace renders each
    worker process as its own track, stitched on the shared monotonic
    timeline.
    """
    for event in events:
        _store(event)


def reset() -> None:
    drain()


def dropped() -> int:
    """Events overwritten by ring wraparound since the last drain/reset."""
    return max(0, _count_value() - _capacity)


# --------------------------------------------------------------------- #
# Recording API
# --------------------------------------------------------------------- #
class _NullSpan:
    """Shared no-op context manager returned when tracing is disabled."""
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return False


NULL = _NullSpan()


class _Span:
    __slots__ = ("name", "cat", "args", "_t0")

    def __init__(self, name: str, cat: str, args: dict | None):
        self.name = name
        self.cat = cat
        self.args = args

    def __enter__(self):
        stack = getattr(_tls, "stack", None)
        if stack is None:
            stack = _tls.stack = []
        stack.append(self)
        self._t0 = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        t1 = time.monotonic()
        stack = _tls.stack
        depth = len(stack) - 1
        stack.pop()
        args = self.args if self.args else {}
        args = dict(args, depth=depth)
        _store(("X", self.name, self.cat, self._t0 * 1e6,
                (t1 - self._t0) * 1e6, os.getpid(),
                threading.get_ident(), args))
        return False


def span(name: str, cat: str = "app", **args):
    """Context manager recording a complete ("X") event around its body.

    Returns the shared no-op when tracing is disabled, so call sites can
    use it unconditionally.
    """
    if not _ENABLED:
        return NULL
    return _Span(name, cat, args or None)


def current_depth() -> int:
    stack = getattr(_tls, "stack", None)
    return len(stack) if stack else 0


def instant(name: str, cat: str = "app", **args) -> None:
    """Record an instant ("i") event — supervision/fault markers."""
    if not _ENABLED:
        return
    _store(("i", name, cat, time.monotonic() * 1e6, 0.0,
            os.getpid(), threading.get_ident(), args or None))


def complete(name: str, start_s: float, dur_s: float,
             cat: str = "app", **args) -> None:
    """Record a complete event with explicit timing.

    For windows measured outside a ``with`` block — e.g. per-request queue
    wait (submit time to batch-assembly time) or dispatch→reply windows.
    ``start_s`` must come from :func:`now` (``time.monotonic``).
    """
    if not _ENABLED:
        return
    _store(("X", name, cat, start_s * 1e6, max(dur_s, 0.0) * 1e6,
            os.getpid(), threading.get_ident(), args or None))


# --------------------------------------------------------------------- #
# Export
# --------------------------------------------------------------------- #
def to_chrome(events) -> list[dict]:
    """Convert event tuples to Chrome trace event dicts."""
    out = []
    for ph, name, cat, ts, dur, pid, tid, args in events:
        event = {"ph": ph, "name": name, "cat": cat, "ts": ts,
                 "pid": pid, "tid": tid, "args": args or {}}
        if ph == "X":
            event["dur"] = dur
        elif ph == "i":
            event["s"] = "p"   # process-scoped instant marker
        out.append(event)
    return out


def export(path: str, *, clear: bool = False) -> int:
    """Write the buffer as Chrome trace JSON; returns the event count."""
    events = drain() if clear else events_snapshot()
    payload = {"traceEvents": to_chrome(events), "displayTimeUnit": "ms"}
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    os.replace(tmp, path)
    return len(events)


_TRACE_OWNER_PID = os.getpid()


def _atexit_export() -> None:  # pragma: no cover - exercised in CI leg
    path = os.environ.get(ENV_TRACE)
    if (not path or _EXPORT_SUPPRESSED
            or os.getpid() != _TRACE_OWNER_PID or not _ENABLED):
        return
    try:
        export(path)
    except Exception:
        pass


atexit.register(_atexit_export)
