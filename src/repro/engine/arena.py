"""Slot-keyed workspace arenas: reuse large buffers across inference calls.

A serving loop streams thousands of same-shape batches through fixed plans
(:class:`repro.engine.LayerPlan`); allocating every stage's array fresh on
each call would be pure allocator traffic, since the shapes never change.

:class:`WorkspaceArena` is a dictionary of reusable buffers keyed by
``(owner, stage)``:

* ``owner`` — the ``slot`` argument when given (typically the executing
  *step*, so two ResNet blocks with the *same* interned plan never scribble
  over each other's buffers mid-network), else the plan itself.  A slot
  outlives the plans it executes (a new batch size lowers a new plan), so
  its buffers are reshaped in place instead of accumulating per plan.  The
  arena keeps a strong reference to the owner so ids stay unique.
* ``stage`` — a name for the buffer's role (``"padded"``, ``"out"``, ...);
  the caller passes its shape.

A buffer is (re)allocated only when its shape or dtype changes — in steady
state :meth:`get` performs a single dict lookup and returns the same array
every call.  Arenas are deliberately **not** thread-safe: one arena belongs
to one in-flight batch.  :class:`ArenaPool` hands out arenas under a lock so
concurrent inference calls never share buffers.
"""

from __future__ import annotations

import contextlib
import threading

import numpy as np

__all__ = ["WorkspaceArena", "ArenaPool", "use_arena", "current_arena"]

_ACTIVE = threading.local()


@contextlib.contextmanager
def use_arena(arena: "WorkspaceArena"):
    """Install ``arena`` as this thread's ambient workspace arena.

    The executor cannot be handed an arena explicitly on the autograd path —
    tensors call it from deep inside ``Module.forward`` — so the training
    loop installs one here and :func:`current_arena` is consulted at the
    point workspace buffers are materialised.  Scoped and re-entrant: the
    previous arena (usually ``None``) is restored on exit, including when
    the step aborts with an exception.
    """
    previous = getattr(_ACTIVE, "arena", None)
    _ACTIVE.arena = arena
    try:
        yield arena
    finally:
        _ACTIVE.arena = previous


def current_arena() -> "WorkspaceArena | None":
    """The arena installed by the innermost :func:`use_arena`, if any."""
    return getattr(_ACTIVE, "arena", None)


class WorkspaceArena:
    """Reusable workspace buffers keyed by ``(slot-or-plan, stage)``."""

    def __init__(self) -> None:
        self._buffers: dict[tuple, np.ndarray] = {}
        self._owners: dict[tuple, object] = {}   # strong refs keep ids unique
        self._ids: set[int] = set()

    def get(self, plan, stage: str, shape: tuple, dtype=np.float64,
            slot=None) -> np.ndarray:
        """The reusable ``shape`` buffer for ``stage`` (allocated on demand).

        The buffer contents are *unspecified* — callers overwrite them
        entirely.  Buffers are keyed by ``slot`` (falling back to the plan)
        so a long-lived caller owns exactly one buffer per stage, re-shaped
        in place when its plan changes (a new batch size) rather than
        accumulated.
        """
        owner = plan if slot is None else slot
        key = (id(owner), stage)
        buf = self._buffers.get(key)
        if buf is None or buf.shape != tuple(shape) or buf.dtype != np.dtype(dtype):
            if buf is not None:
                self._ids.discard(id(buf))
            buf = np.empty(tuple(shape), dtype=dtype)
            self._buffers[key] = buf
            self._owners[key] = owner
            self._ids.add(id(buf))
        return buf

    def owns(self, array: np.ndarray) -> bool:
        """True when ``array`` is (a view into) one of this arena's buffers."""
        seen = array
        while seen is not None:
            if id(seen) in self._ids:
                return True
            seen = getattr(seen, "base", None)
        return False

    def clear(self) -> None:
        self._buffers.clear()
        self._owners.clear()
        self._ids.clear()

    @property
    def nbytes(self) -> int:
        """Total bytes currently held by the arena."""
        return sum(buf.nbytes for buf in self._buffers.values())

    def __len__(self) -> int:
        return len(self._buffers)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"WorkspaceArena({len(self)} buffers, {self.nbytes} bytes)"


class ArenaPool:
    """A lock-protected free list of :class:`WorkspaceArena` instances.

    Concurrent inference calls each lease their own arena, so in-flight
    batches never share workspace buffers; when a call finishes its arena
    (with its warm buffers) goes back on the free list for the next call.

    Leases are exception-aware: a batch that fails or is cancelled
    mid-inference (a worker crash, a missed deadline aborting between steps)
    still returns its arena — *cleared*, so a half-written workspace from an
    abandoned batch is never handed warm to the next one, and the memory of
    a failure burst is released instead of lingering on the free list.  The
    ``leased`` / ``reclaimed`` counters make leaks observable in tests.
    """

    def __init__(self) -> None:
        self._free: list[WorkspaceArena] = []
        self._all: list[WorkspaceArena] = []
        self._lock = threading.Lock()
        self._leased = 0
        self.reclaimed = 0      # leases released via the exception path

    @property
    def created(self) -> int:
        """Number of distinct arenas ever created (== peak concurrency)."""
        return len(self._all)

    @property
    def leased(self) -> int:
        """Arenas currently out on lease (0 when the pool is quiescent)."""
        with self._lock:
            return self._leased

    @property
    def nbytes(self) -> int:
        return sum(arena.nbytes for arena in self._all)

    @contextlib.contextmanager
    def lease(self):
        """Context manager yielding an arena exclusive to this caller."""
        with self._lock:
            arena = self._free.pop() if self._free else None
            if arena is None:
                arena = WorkspaceArena()
                self._all.append(arena)
            self._leased += 1
        try:
            yield arena
        except BaseException:
            # Failed/cancelled batch: reclaim the lease but drop the
            # half-written buffers so nothing stale survives the failure.
            arena.clear()
            with self._lock:
                self._leased -= 1
                self.reclaimed += 1
                self._free.append(arena)
            raise
        else:
            with self._lock:
                self._leased -= 1
                self._free.append(arena)

    def clear(self) -> None:
        with self._lock:
            for arena in self._all:
                arena.clear()
