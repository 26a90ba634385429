"""Per-:class:`~repro.engine.LayerPlan` kernel profiling.

When profiling is enabled, the executor swaps a plan's backend for a
*profiled* copy — the same frozen :class:`~repro.kernels.KernelBackend`
with every primitive member wrapped to accumulate wall time into a
process-wide table keyed ``(plan label, primitive)``.  Each entry
remembers which backend ran, answering "which layer is hot, and in which
primitive?".

Profiled backends are built once per ``(plan label, backend)`` and cached,
so steady-state overhead is one dict lookup plus two clock reads per
primitive call.  Disabled (the default), the only cost at a call site is
the module-flag check.

Exposed through ``Server.stats()["profile"]`` and
``CompiledModel.profile()``.
"""

from __future__ import annotations

import os
import threading
import time

from .trace import _env_on

__all__ = ["enabled", "enable", "disable", "reset",
           "plan_label", "backend_for", "report"]

_ENABLED = _env_on(os.environ.get("REPRO_OBS"))

_lock = threading.Lock()
# (plan_label, primitive) -> [calls, total_s]
_times: dict[tuple[str, str], list] = {}
# plan_label -> {"kind", "backend"}
_plans: dict[str, dict] = {}
# (plan_label, KernelBackend) -> profiled copy of that backend
_wrapped: dict[tuple[str, object], object] = {}


def enabled() -> bool:
    return _ENABLED


def enable() -> None:
    global _ENABLED
    _ENABLED = True


def disable() -> None:
    global _ENABLED
    _ENABLED = False


def reset() -> None:
    with _lock:
        _times.clear()
        _plans.clear()
        _wrapped.clear()


def plan_label(plan) -> str:
    """Stable human-readable key for a plan (plans themselves hold
    unhashable members, so they cannot key the table directly)."""
    transform = plan.transform
    tname = (f"F{transform.m}x{transform.r}"
             if transform is not None else "im2col")
    n, c, h, w = plan.in_shape
    cout = plan.weight_shape[0]
    kh, kw = plan.weight_shape[2], plan.weight_shape[3]
    return (f"{plan.kind}[{tname}] in={n}x{c}x{h}x{w} "
            f"w={cout}x{c}x{kh}x{kw} backend={plan.backend.name}")


def _record(key: tuple[str, str], elapsed: float) -> None:
    entry = _times.get(key)
    if entry is None:
        with _lock:
            entry = _times.setdefault(key, [0, 0.0])
    entry[0] += 1
    entry[1] += elapsed


def backend_for(plan):
    """The plan's backend with every primitive wrapped for timing."""
    label = plan_label(plan)
    cache_key = (label, plan.backend)
    wrapped = _wrapped.get(cache_key)
    if wrapped is not None:
        return wrapped
    with _lock:
        _plans.setdefault(label, {"kind": plan.kind,
                                  "backend": plan.backend.name})

    def _wrap(primitive: str, fn):
        key = (label, primitive)

        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                _record(key, time.perf_counter() - t0)

        timed.__name__ = f"profiled_{primitive}"
        return timed

    wrapped = plan.backend.instrumented(_wrap)
    with _lock:
        wrapped = _wrapped.setdefault(cache_key, wrapped)
    return wrapped


def report() -> dict:
    """Accumulated profile: ``{plan label: {...}}``.

    Each plan block carries the backend that ran and per-primitive
    ``calls`` / ``total_s`` / ``mean_ms``, plus the plan's total kernel
    seconds.
    """
    with _lock:
        times = {key: list(value) for key, value in _times.items()}
        plans = {label: dict(info) for label, info in _plans.items()}
    out: dict[str, dict] = {}
    for (label, primitive), (calls, total_s) in sorted(times.items()):
        info = plans.get(label, {})
        block = out.setdefault(label, {
            "kind": info.get("kind"),
            "backend": info.get("backend"),
            "total_s": 0.0,
            "primitives": {},
        })
        block["primitives"][primitive] = {
            "calls": calls,
            "total_s": total_s,
            "mean_ms": (total_s / calls * 1e3) if calls else 0.0,
        }
        block["total_s"] += total_s
    return out
