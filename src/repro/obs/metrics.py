"""Process-wide metrics registry: counters, gauges, histograms, collectors.

Two halves:

* **Primitives** — :class:`Counter`, :class:`Gauge`, :class:`Histogram`
  (log-bucketed, constant memory, p50/p95/p99 snapshots) and
  :class:`LatencyWindow` (preallocated ring of exact samples for the
  serving-latency percentiles, replacing the old grow-then-slice list).
  Primitives are not individually locked; owners that mutate from
  multiple threads (e.g. ``ServerStats``) hold their own lock, matching
  the pre-obs design.
* **Registry** — a process-wide :data:`REGISTRY` of named *collectors*
  (zero-arg callables returning a stats dict).  The plan cache registers
  its collector at import, so ``Server.stats()`` is one
  ``REGISTRY.collect()`` call.
"""

from __future__ import annotations

import math
import threading

import numpy as np

__all__ = [
    "Counter", "Gauge", "Histogram", "LatencyWindow",
    "MetricsRegistry", "REGISTRY",
]


class Counter:
    """Monotonic counter."""
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n


class Gauge:
    """Last-write-wins instantaneous value."""
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    """Log-bucketed histogram with percentile estimation.

    Buckets are geometric: bucket ``i`` covers
    ``[lo * growth**i, lo * growth**(i+1))``.  With the default growth of
    ``2**0.25`` (~19% per bucket) a percentile estimate — the geometric
    midpoint of the bucket it lands in — is within ~9% relative error of
    the true value, at constant memory for any value range.  Values at or
    below ``lo`` land in an underflow bucket.
    """

    __slots__ = ("lo", "growth", "_log_growth", "_buckets",
                 "count", "sum", "min", "max")

    def __init__(self, lo: float = 1e-7, growth: float = 2.0 ** 0.25):
        self.lo = float(lo)
        self.growth = float(growth)
        self._log_growth = math.log(self.growth)
        self._buckets: dict[int, int] = {}
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if value <= self.lo:
            idx = -1
        else:
            idx = int(math.log(value / self.lo) / self._log_growth)
        self._buckets[idx] = self._buckets.get(idx, 0) + 1

    def percentile(self, q: float) -> float:
        """Estimated ``q``-th percentile (0..100); NaN when empty."""
        if not self.count:
            return math.nan
        rank = q / 100.0 * (self.count - 1)
        seen = 0
        for idx in sorted(self._buckets):
            seen += self._buckets[idx]
            if seen > rank:
                if idx < 0:
                    return min(self.lo, self.max)
                lower = self.lo * self.growth ** idx
                upper = lower * self.growth
                # Geometric midpoint, clamped to the observed range so
                # single-bucket histograms don't overshoot min/max.
                mid = math.sqrt(lower * upper)
                return min(max(mid, self.min), self.max)
        return self.max  # pragma: no cover - rank always inside the loop

    def snapshot(self) -> dict:
        return {
            "count": self.count,
            "sum": self.sum,
            "mean": self.sum / self.count if self.count else 0.0,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
        }


class LatencyWindow:
    """Preallocated ring buffer of the last ``window`` exact samples.

    Replaces ``ServerStats``' grow-then-slice python list: recording is an
    array store plus an index bump (no allocation, no periodic ``del``),
    and percentiles are exact over the retained window.
    """

    __slots__ = ("_buf", "_window", "_next")

    def __init__(self, window: int = 10000):
        self._window = max(int(window), 1)
        self._buf = np.empty(self._window, dtype=np.float64)
        self._next = 0

    def record(self, value: float) -> None:
        self._buf[self._next % self._window] = value
        self._next += 1

    def __len__(self) -> int:
        return min(self._next, self._window)

    def values(self) -> np.ndarray:
        return self._buf[:len(self)]

    def percentile(self, q) -> float | list[float]:
        filled = self.values()
        if not filled.size:
            return math.nan
        result = np.percentile(filled, q)
        return (float(result) if np.isscalar(q) or result.ndim == 0
                else [float(v) for v in result])


class MetricsRegistry:
    """Named collectors producing one merged stats snapshot."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._collectors: dict[str, object] = {}

    def register_collector(self, name: str, fn) -> None:
        with self._lock:
            self._collectors[name] = fn

    def unregister_collector(self, name: str) -> None:
        with self._lock:
            self._collectors.pop(name, None)

    def collectors(self) -> list[str]:
        with self._lock:
            return sorted(self._collectors)

    def collect(self) -> dict:
        """One snapshot: ``{collector_name: collector() result}``."""
        with self._lock:
            items = list(self._collectors.items())
        out = {}
        for name, fn in items:
            try:
                out[name] = fn()
            except Exception as exc:  # never let stats take a server down
                out[name] = {"error": f"{type(exc).__name__}: {exc}"}
        return out


REGISTRY = MetricsRegistry()


# --------------------------------------------------------------------- #
# Default collector: the plan cache
# --------------------------------------------------------------------- #
def _plan_cache_block() -> dict:
    from ..engine import plan
    stats = plan.plan_cache_stats()
    return {"hits": stats.hits, "misses": stats.misses,
            "evictions": stats.evictions, "size": stats.size}


REGISTRY.register_collector("plan_cache", _plan_cache_block)
