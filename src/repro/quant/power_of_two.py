"""Power-of-two scale factors and their learned (∇ log2 t) variant.

Section III-B of the paper restricts the tap-wise scaling factors to powers of
two so that all re-quantization and de-quantization steps inside the Winograd
domain become plain shifts in hardware.  Three mechanisms are provided:

1. **Straight-forward rounding** — the calibrated scale is rounded up to the
   next power of two: ``s̃ = 2^⌈log2 s⌉``.
2. **Learned power-of-two scales** — the scale is parameterised as
   ``s = 2^⌈log2 t⌉`` and ``log2 t`` is trained with the straight-through
   estimator; the gradient follows Eq. (3) of the paper.
3. **Shift extraction** — :func:`scale_to_shift` recovers the integer shift
   amounts that the hardware requantization stages would use, and is what the
   accelerator model consumes.
"""

from __future__ import annotations

import numpy as np

from ..kernels.fake_quant import fake_quantize, learned_scale_grad
from ..nn.module import Parameter
from ..nn.tensor import Tensor, as_tensor

__all__ = [
    "round_scale_to_power_of_two",
    "pow2_gradient_scale",
    "scale_to_shift",
    "shift_to_scale",
    "learned_pow2_fake_quantize",
]


def round_scale_to_power_of_two(scale: np.ndarray) -> np.ndarray:
    """Round scale factors up to the next power of two: ``2^⌈log2 s⌉``."""
    scale = np.maximum(np.asarray(scale, dtype=np.float64), 1e-30)
    return np.power(2.0, np.ceil(np.log2(scale)))


def pow2_gradient_scale(log2_t: np.ndarray) -> np.ndarray:
    """Effective scale ``2^⌈log2 t⌉`` given the learned parameter ``log2 t``."""
    return np.power(2.0, np.ceil(np.asarray(log2_t, dtype=np.float64)))


def scale_to_shift(scale: np.ndarray) -> np.ndarray:
    """Integer shift amounts implementing a power-of-two scale.

    ``shift > 0`` means a right shift by that many bits during quantization
    (dividing by ``2^shift``); raises if the scale is not a power of two.
    """
    scale = np.asarray(scale, dtype=np.float64)
    shifts = np.log2(scale)
    rounded = np.rint(shifts)
    if not np.allclose(shifts, rounded, atol=1e-9):
        raise ValueError("scale factors are not powers of two")
    return rounded.astype(np.int64)


def shift_to_scale(shift: np.ndarray) -> np.ndarray:
    """Inverse of :func:`scale_to_shift`."""
    return np.power(2.0, np.asarray(shift, dtype=np.float64))


def learned_pow2_fake_quantize(x: Tensor, log2_t: Parameter, n_bits: int,
                               signed: bool = True) -> Tensor:
    """Fake quantization with a learned power-of-two scale.

    Forward::

        s    = 2^⌈log2 t⌉
        q(x) = s · clamp(⌊x / s⌉, qmin, qmax)

    Backward (paper Eq. (3), straight-through estimators for both the rounding
    and the ceiling)::

        ∂q/∂x        = 1                     inside the clipping range
                     = 0                     outside
        ∂q/∂log2(t)  = s · ln(2) · clamp(⌊x/s⌉ − x/s, qmin, qmax)    inside
                     = s · ln(2) · (qmin or qmax)                    outside

    Gradients w.r.t. ``log2 t`` are reduced (summed) over the broadcast axes so
    they match the parameter's per-tap / per-channel shape.
    """
    x = as_tensor(x)
    if signed:
        qmin, qmax = -(1 << (n_bits - 1)), (1 << (n_bits - 1)) - 1
    else:
        qmin, qmax = 0, (1 << n_bits) - 1

    x_data = x.data
    scale = pow2_gradient_scale(log2_t.data)
    out, inside = fake_quantize(x_data, scale, qmin, qmax)

    def _backward(grad: np.ndarray):
        # Gradient w.r.t. the data: clipped straight-through; w.r.t. log2(t):
        # Eq. (3), reduced over the broadcast axes to the parameter shape.
        return (grad * inside,
                learned_scale_grad(grad, x_data, scale, qmin, qmax))

    return Tensor.from_op(out, (x, log2_t), _backward)
