"""Generated-kernel adapters the ``tuned`` tier uses.

For float64 calls whose geometry the :mod:`repro.kernels.codegen` package
supports, the three hottest primitives — fused Winograd forward, fused
Winograd autograd, im2col GEMM — can run as shape-specialized C kernels.
``tuned`` registers them as autotune candidates through these entry points:
``prepare_*`` builds (or disk-loads) the kernel for a geometry ahead of the
benchmark rounds so :func:`repro.engine.autotune.decide` times the kernel,
never the compile; ``try_*`` runs it, returning ``None`` when codegen cannot
deliver (``REPRO_CODEGEN=off``, no C toolchain, a failed build, a
non-float64 dtype, an uncovered geometry) so callers fall back to their
numpy paths.
"""

from __future__ import annotations

import numpy as np

from . import codegen, fast
from .codegen import GemmSpec, WinogradSpec

__all__ = [
    "try_forward", "try_autograd", "try_gemm",
    "prepare_forward", "prepare_autograd", "prepare_gemm",
]

# Emitted source is O(alpha²) straight-line statements and the kernels keep
# static alpha²·C·TB workspaces; cap the geometry so a pathological plan
# can't explode compile time or the BSS.  F2/F4/F6 all fit comfortably.
_MAX_ALPHA = 8
_MAX_CHANNELS = 1024


def _f64(*arrays) -> bool:
    return all(a.dtype == np.float64 for a in arrays)


def _wino_spec(x_padded: np.ndarray, cout: int, transform,
               out_h: int, out_w: int) -> WinogradSpec | None:
    n, cin, hp, wp = x_padded.shape
    m, r = transform.m, transform.r
    a = m + r - 1
    if a > _MAX_ALPHA or cin > _MAX_CHANNELS or cout > _MAX_CHANNELS:
        return None
    n_h = (hp - (r - 1)) // m
    n_w = (wp - (r - 1)) // m
    if n * n_h * n_w < 1:
        return None
    if n_h * m < out_h or n_w * m < out_w:
        return None            # tiles don't cover the requested output

    as_rows = lambda mat: tuple(
        tuple(float(v) for v in row) for row in np.asarray(mat))
    return WinogradSpec(n=n, cin=cin, cout=cout, hp=hp, wp=wp,
                        out_h=out_h, out_w=out_w, m=m, r=r,
                        bt=as_rows(transform.BT), at=as_rows(transform.AT))


# --------------------------------------------------------------------------- #
# Fused Winograd forward
# --------------------------------------------------------------------------- #
def prepare_forward(x_padded: np.ndarray, w_r: np.ndarray, transform,
                    out_h: int, out_w: int) -> bool:
    """Build (or load) the forward kernel for this geometry; True if ready."""
    if not codegen.available() or not _f64(x_padded, w_r):
        return False
    spec = _wino_spec(x_padded, w_r.shape[1], transform, out_h, out_w)
    return spec is not None and codegen.forward_kernel(spec) is not None


def try_forward(x_padded: np.ndarray, weight: np.ndarray, transform,
                out_h: int, out_w: int,
                w_r: np.ndarray | None = None,
                out: np.ndarray | None = None) -> np.ndarray | None:
    if not codegen.available() or x_padded.dtype != np.float64:
        return None
    if w_r is None:
        if weight.dtype != np.float64:
            return None
        w_r = fast.transform_weights_tap_major(weight, transform)
    if w_r.dtype != np.float64:
        return None
    cout = w_r.shape[1]
    spec = _wino_spec(x_padded, cout, transform, out_h, out_w)
    if spec is None:
        return None
    kern = codegen.forward_kernel(spec)
    if kern is None:
        return None
    xc = np.ascontiguousarray(x_padded)
    wc = np.ascontiguousarray(w_r)
    shape = (spec.n, cout, out_h, out_w)
    if (out is not None and out.shape == shape and out.dtype == np.float64
            and out.flags.c_contiguous):
        res = out
    else:
        res = np.empty(shape, dtype=np.float64)
    kern(xc, wc, res)
    return res


# --------------------------------------------------------------------------- #
# Fused Winograd autograd
# --------------------------------------------------------------------------- #
def prepare_autograd(x_padded: np.ndarray, weight: np.ndarray, transform,
                     out_h: int, out_w: int) -> bool:
    """Build (or load) the forward+backward pair; True when both are ready."""
    if not codegen.available() or not _f64(x_padded, weight):
        return False
    spec = _wino_spec(x_padded, weight.shape[0], transform, out_h, out_w)
    if spec is None:
        return False
    return (codegen.forward_kernel(spec) is not None
            and codegen.backward_kernel(spec) is not None)


def try_autograd(x_padded: np.ndarray, weight: np.ndarray, transform,
                 out_h: int, out_w: int):
    if not codegen.available() or not _f64(x_padded, weight):
        return None
    cout, cin = weight.shape[0], weight.shape[1]
    spec = _wino_spec(x_padded, cout, transform, out_h, out_w)
    if spec is None:
        return None
    fwd_kern = codegen.forward_kernel(spec)
    bwd_kern = codegen.backward_kernel(spec)
    if fwd_kern is None or bwd_kern is None:
        return None
    a = spec.alpha
    xc = np.ascontiguousarray(x_padded)
    w_r = np.ascontiguousarray(
        fast.transform_weights_tap_major(weight, transform))
    out = np.empty((spec.n, cout, out_h, out_w), dtype=np.float64)
    fwd_kern(xc, w_r, out)
    # The backward GEMM wants the per-tap transpose (a², Cin, Cout).
    w_rt = np.ascontiguousarray(w_r.transpose(0, 2, 1))
    g_mat = np.asarray(transform.G, dtype=np.float64)

    def backward(grad: np.ndarray):
        g = np.ascontiguousarray(grad, dtype=np.float64)
        dx = np.zeros_like(xc)
        dw_r = np.zeros((a * a, cout, cin), dtype=np.float64)
        bwd_kern(xc, w_rt, g, dx, dw_r)
        # Winograd-domain weight gradient back to tap space: Gᵀ · dŴ · G.
        dw_wino = dw_r.reshape(a, a, cout, cin).transpose(2, 3, 0, 1)
        dw = g_mat.T @ dw_wino @ g_mat
        return dx, np.ascontiguousarray(dw)

    return out, backward


# --------------------------------------------------------------------------- #
# im2col GEMM
# --------------------------------------------------------------------------- #
def _gemm_spec(w2d: np.ndarray, cols: np.ndarray) -> GemmSpec | None:
    if cols.ndim != 3 or w2d.ndim != 2 or w2d.shape[1] != cols.shape[1]:
        return None
    return GemmSpec(n=cols.shape[0], o=w2d.shape[0],
                    k=w2d.shape[1], p=cols.shape[2])


def prepare_gemm(w2d: np.ndarray, cols: np.ndarray) -> bool:
    if not codegen.available() or not _f64(w2d, cols):
        return False
    spec = _gemm_spec(w2d, cols)
    return spec is not None and codegen.gemm_kernel(spec) is not None


def try_gemm(w2d: np.ndarray, cols: np.ndarray,
             out: np.ndarray | None = None) -> np.ndarray | None:
    if not codegen.available() or not _f64(w2d, cols):
        return None
    spec = _gemm_spec(w2d, cols)
    if spec is None:
        return None
    kern = codegen.gemm_kernel(spec)
    if kern is None:
        return None
    wc = np.ascontiguousarray(w2d)
    cc = np.ascontiguousarray(cols)
    shape = (spec.n, spec.o, spec.p)
    if (out is not None and out.shape == shape and out.dtype == np.float64
            and out.flags.c_contiguous):
        res = out
    else:
        res = np.empty(shape, dtype=np.float64)
    kern(wc, cc, res)
    return res
