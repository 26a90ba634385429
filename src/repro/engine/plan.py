"""Lowering: compile convolution layer shapes into cached, immutable LayerPlans.

The accelerator the paper models does all of its *planning* once per layer —
kernel selection, transform choice, tiling geometry, buffer sizing — and then
streams batches through that fixed plan (Section IV-B).  The eager entry
points of this reproduction historically re-derived all of that on every
call.  This module is the compiler half of the fix:

* :func:`lower_winograd` / :func:`lower_conv2d` compile one layer *shape*
  (input shape, weight shape, stride/padding, transform, backend) into a
  :class:`LayerPlan` holding the resolved kernel backend, the Winograd
  transform and the precomputed padding/tiling geometry: exactly what the
  executor reads.

* Plans are interned in a process-wide LRU keyed by the lowering arguments,
  so repeated calls with the same layer shape — the overwhelmingly common
  case in training loops and sweeps — return the *same* immutable plan
  object.  The backend enters the key by identity, not name, and each plan
  holds its backend, so a plan lowered for one backend is never returned for
  another (an instrumented copy of a registered backend gets plans of its
  own, and a process-wide switch needs no eviction).
  :func:`plan_cache_stats` exposes hit/miss counters.

The executor half lives in :mod:`repro.engine.executor`.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

from ..kernels import KernelBackend, get_backend
from ..winograd.tiling import tile_counts
from ..winograd.transforms import WinogradTransform, get_transform, winograd_f4

__all__ = [
    "LayerPlan",
    "PlanStats",
    "lower_winograd",
    "lower_conv2d",
    "plan_cache_stats",
    "clear_plan_cache",
    "reset_plan_stats",
    "PLAN_CACHE_MAXSIZE",
]

PLAN_CACHE_MAXSIZE = 512


@dataclass(frozen=True)
class LayerPlan:
    """Everything needed to execute one convolution layer, resolved up front.

    Instances are immutable and shared: the lowering functions intern them in
    a process-wide cache, so two calls with the same layer shape get the same
    object.
    """

    kind: str                                   # "winograd" | "im2col"
    backend: KernelBackend
    in_shape: tuple[int, int, int, int]
    weight_shape: tuple[int, int, int, int]
    stride: int
    padding: int
    out_h: int
    out_w: int
    # Winograd-only geometry (zeros / None for im2col plans).
    transform: WinogradTransform | None = None
    n_h: int = 0
    n_w: int = 0
    pad_width: tuple | None = None              # np.pad spec for the input

    @property
    def out_shape(self) -> tuple[int, int, int, int]:
        return (self.in_shape[0], self.weight_shape[0], self.out_h, self.out_w)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tname = self.transform.name if self.transform is not None else None
        return (f"LayerPlan({self.kind}, in={self.in_shape}, "
                f"w={self.weight_shape}, transform={tname}, "
                f"backend={self.backend.name!r})")


@dataclass
class PlanStats:
    """Counters of the process-wide plan cache."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    size: int = 0


_CACHE: OrderedDict[tuple, LayerPlan] = OrderedDict()
_STATS = PlanStats()
_LOCK = threading.Lock()


def plan_cache_stats() -> PlanStats:
    """Snapshot of the plan-cache counters (size reflects current entries)."""
    with _LOCK:
        return PlanStats(hits=_STATS.hits, misses=_STATS.misses,
                         evictions=_STATS.evictions, size=len(_CACHE))


def clear_plan_cache() -> None:
    """Evict every cached plan (counted in ``evictions``; stats are kept)."""
    with _LOCK:
        _STATS.evictions += len(_CACHE)
        _CACHE.clear()


def reset_plan_stats() -> None:
    """Zero the hit/miss/eviction counters (the cache itself is kept)."""
    with _LOCK:
        _STATS.hits = _STATS.misses = _STATS.evictions = 0


def _intern(key: tuple, build) -> LayerPlan:
    with _LOCK:
        plan = _CACHE.get(key)
        if plan is not None:
            _STATS.hits += 1
            _CACHE.move_to_end(key)
            return plan
    # Build outside the lock (lowering is cheap but touches other caches).
    plan = build()
    with _LOCK:
        existing = _CACHE.get(key)
        if existing is not None:        # lost a race: keep the first plan
            _STATS.hits += 1
            return existing
        _STATS.misses += 1
        _CACHE[key] = plan
        if len(_CACHE) > PLAN_CACHE_MAXSIZE:
            _CACHE.popitem(last=False)
            _STATS.evictions += 1
    return plan


def lower_winograd(in_shape: tuple, weight_shape: tuple,
                   transform: WinogradTransform | str | None = None,
                   padding: int = 1,
                   backend: str | KernelBackend | None = None) -> LayerPlan:
    """Compile a unit-stride Winograd convolution layer into a cached plan.

    ``transform`` may be a :class:`WinogradTransform` instance (the cached
    singletons hash by identity) or a registry name (``"F2"``/``"F4"``/...);
    ``None`` selects F4, the paper's headline configuration.
    """
    be = get_backend(backend)
    if isinstance(transform, str):
        transform = get_transform(transform)
    transform = transform or winograd_f4()
    n, cin, h, w = (int(v) for v in in_shape)
    cout, cin_w, kh, kw = (int(v) for v in weight_shape)
    m, r = transform.m, transform.r
    if kh != r or kw != r:
        raise ValueError(f"kernel size ({kh}, {kw}) does not match transform r={r}")
    if cin != cin_w:
        raise ValueError(f"channel mismatch: input has {cin}, weight expects {cin_w}")

    # The cached plan holds ``be``, so its id cannot be reused while the
    # entry lives.
    key = ("winograd", (n, cin, h, w), (cout, cin_w, kh, kw), padding,
           transform, id(be))

    def build() -> LayerPlan:
        out_h = h + 2 * padding - r + 1
        out_w = w + 2 * padding - r + 1
        if out_h <= 0 or out_w <= 0:
            raise ValueError("input too small for the requested kernel/padding")
        n_h, n_w = tile_counts(out_h, out_w, m)
        needed_h = n_h * m + r - 1
        needed_w = n_w * m + r - 1
        pad_bottom = max(needed_h - (h + 2 * padding), 0)
        pad_right = max(needed_w - (w + 2 * padding), 0)
        pad_width = ((0, 0), (0, 0),
                     (padding, padding + pad_bottom),
                     (padding, padding + pad_right))
        return LayerPlan(kind="winograd", backend=be, in_shape=(n, cin, h, w),
                         weight_shape=(cout, cin_w, kh, kw), stride=1,
                         padding=padding, out_h=out_h, out_w=out_w,
                         transform=transform, n_h=n_h, n_w=n_w,
                         pad_width=pad_width)

    return _intern(key, build)


def lower_conv2d(in_shape: tuple, weight_shape: tuple, stride: int = 1,
                 padding: int = 0,
                 backend: str | KernelBackend | None = None) -> LayerPlan:
    """Compile an im2col convolution layer into a cached plan."""
    be = get_backend(backend)
    n, cin, h, w = (int(v) for v in in_shape)
    cout, cin_w, kh, kw = (int(v) for v in weight_shape)
    if cin != cin_w:
        raise ValueError(f"channel mismatch: input has {cin}, weight expects {cin_w}")

    key = ("im2col", (n, cin, h, w), (cout, cin_w, kh, kw), stride, padding,
           id(be))

    def build() -> LayerPlan:
        out_h = (h + 2 * padding - kh) // stride + 1
        out_w = (w + 2 * padding - kw) // stride + 1
        if out_h <= 0 or out_w <= 0:
            raise ValueError("input too small for the requested kernel/padding")
        return LayerPlan(kind="im2col", backend=be, in_shape=(n, cin, h, w),
                         weight_shape=(cout, cin_w, kh, kw), stride=stride,
                         padding=padding, out_h=out_h, out_w=out_w)

    return _intern(key, build)
