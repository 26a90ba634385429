"""Shape-specialized native codegen for the hottest convolution primitives.

For each interned :class:`~repro.engine.plan.LayerPlan` geometry this package
generates a specialized kernel — the fused tap-major Winograd forward, the
fused autograd pair, and the im2col GEMM — with every loop bound, tile count
and transform coefficient folded into constants.  The kernels are C source
(:mod:`.emit`) compiled through cffi by the host toolchain and cached as
shared objects in a versioned on-disk store (:mod:`.build`,
``$REPRO_CODEGEN_CACHE``).

Nothing here decides *whether* a generated kernel runs: built kernels are
registered as extra candidates in the ``tuned`` tier's spaces, and
:func:`repro.engine.autotune.decide` benchmarks them against the blocked
numpy variants per shape, persisting the winner through the plan cache.
When codegen is disabled (``REPRO_CODEGEN=off``) or no C toolchain can
deliver, :func:`available` is false, ``tuned`` registers no codegen
candidates, and plan-cache records naming codegen candidates load as clean
misses.
"""

from __future__ import annotations

import os

from . import build, emit
from .build import (CODEGEN_VERSION, ENV_CACHE_DIR, cache_dir, object_dir,
                    reset_stats, stats, stats_dict, warm_disk)
from .emit import GemmSpec, WinogradSpec

__all__ = [
    "ENV_ENABLE", "ENV_CACHE_DIR", "CODEGEN_VERSION",
    "WinogradSpec", "GemmSpec",
    "enabled", "available",
    "forward_kernel", "backward_kernel", "gemm_kernel",
    "warm_disk", "cache_dir", "object_dir",
    "stats", "stats_dict", "reset_stats", "reset_state",
]

ENV_ENABLE = "REPRO_CODEGEN"

# Per-spec kernel memo (emitting + hashing source per call would dominate a
# sub-millisecond kernel).  Only successful builds are stored; availability
# is re-checked before the memo so flipping REPRO_CODEGEN off takes effect
# immediately and build failures short-circuit inside :mod:`.build`.
_SPEC_KERNELS: dict = {}


def enabled() -> bool:
    return os.environ.get(ENV_ENABLE, "").strip().lower() not in (
        "off", "0", "false", "no")


def available() -> bool:
    """Can this process deliver generated kernels right now?

    False when disabled by env, when the C toolchain is missing, or after a
    build failure flagged the toolchain broken.  The ``tuned`` tier's
    candidate registration and the ``compiled`` adapters gate on this, which
    is what makes the no-toolchain degradation bit-exact.
    """
    return enabled() and build.toolchain_available()


def _get(kind: str, spec, make_source):
    if not available():
        return None
    key = (kind, spec)
    kern = _SPEC_KERNELS.get(key)
    if kern is not None:
        return kern
    kern = build.get_kernel(make_source(spec))
    if kern is not None:
        _SPEC_KERNELS[key] = kern
    return kern


def forward_kernel(spec: WinogradSpec):
    """``kern(x_padded, w_r, out)`` for this geometry, or ``None``."""
    return _get("fwd", spec, emit.emit_winograd_forward)


def backward_kernel(spec: WinogradSpec):
    """``kern(x_padded, w_rt, grad, dx, dw_r)`` for this geometry, or ``None``."""
    return _get("bwd", spec, emit.emit_winograd_backward)


def gemm_kernel(spec: GemmSpec):
    """``kern(w2d, cols, out)`` for this geometry, or ``None``."""
    return _get("gemm", spec, emit.emit_gemm)


def reset_state() -> None:
    """Forget kernels, failures and stats (testing / fork-cold workers)."""
    build.reset_state()
    _SPEC_KERNELS.clear()
