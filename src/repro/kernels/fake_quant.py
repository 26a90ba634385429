"""Fake quantization (Eq. 2) and its learned-scale gradient (Eq. 3) on arrays.

The array-level arithmetic shared by the autograd fake-quant nodes of
:mod:`repro.quant` and the fused tap-wise training kernels of both backends,
so every path quantizes with the same operations in the same order.
"""

from __future__ import annotations

import numpy as np

__all__ = ["signed_range", "fake_quantize", "learned_scale_grad"]


def signed_range(n_bits: int) -> tuple[int, int]:
    """``[qmin, qmax]`` of a signed ``n_bits`` grid (e.g. [-128, 127])."""
    return -(1 << (n_bits - 1)), (1 << (n_bits - 1)) - 1


def fake_quantize(x: np.ndarray, scale: np.ndarray, qmin: int, qmax: int,
                  out: np.ndarray | None = None
                  ) -> tuple[np.ndarray, np.ndarray]:
    """``clip(rint(x / s), qmin, qmax) * s`` and the clipped-STE mask.

    The mask is ``qmin <= x / s <= qmax``.  The ratio, the rounding, the
    clip and the rescale all run in one buffer (``out``, which may be ``x``
    itself, or a fresh array); the result is bit-identical to the
    four-temporary expression.
    """
    ratio = np.divide(x, scale, out=out)
    inside = (ratio >= qmin) & (ratio <= qmax)
    np.rint(ratio, out=ratio)
    np.clip(ratio, qmin, qmax, out=ratio)
    ratio *= scale
    return ratio, inside


def _sum_to(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` over the axes broadcast against ``shape``; reshape to it."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(ax for ax, dim in enumerate(shape)
                 if dim == 1 and grad.shape[ax] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def learned_scale_grad(grad: np.ndarray, x: np.ndarray, scale: np.ndarray,
                       qmin: int, qmax: int) -> np.ndarray:
    """Eq. (3): the gradient w.r.t. ``log2 t`` of ``s = 2^⌈log2 t⌉``.

    ``grad`` is the upstream gradient of the fake-quantized ``x``.  Inside
    the clipping range the derivative is ``s·ln2·(⌊x/s⌉ − x/s)``, outside it
    is ``s·ln2·(qmin or qmax)``; the product with ``grad`` is summed down to
    the scale's shape.
    """
    ratio = x / scale
    rounded = np.rint(ratio)
    clipped = np.clip(rounded, qmin, qmax)
    inside = (ratio >= qmin) & (ratio <= qmax)
    residual = np.where(inside, rounded - ratio, clipped)
    dscale_log = scale * np.log(2.0) * residual
    return _sum_to(grad * dscale_log, np.shape(scale))
