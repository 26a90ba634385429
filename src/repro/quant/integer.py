"""Integer-only inference simulation of the tap-wise quantized Winograd scheme.

The training-time layers use *fake quantization* (quantize–dequantize in the
real domain).  This module verifies that the same computation can be carried
out with integer arithmetic only, which is the whole point of the paper:

    AT [ S_BG ⊙ Σ_Cin ⌊BT x̂ B ⊘ S_B⌉_intb ⊙ ⌊G f̂ GT ⊘ S_G⌉_intb ] A

The element-wise multiply–accumulate over input channels happens on int
values (int8/int10 operands, int32 accumulation on the accelerator), and the
only real-valued step is the single rescale with ``S_BG = S_B ⊙ S_G`` before
the back-transformation, which collapses to a shift when the scales are
powers of two.

:func:`integer_winograd_conv2d` quantizes the input, binds the requantized
tap-major weights, and makes one :func:`repro.engine.execute` call with a
:class:`~repro.kernels.TapRequant` spec, so the path gets the same padding,
trace span and per-plan profile as every other convolution.  The weights are
bound exactly: the int8 weights are transformed with the integral ``k·G``
(``k`` = 2 for F2, 24 for F4) in one GEMM whose products are exact
integers, and then scaled once per tap by ``s_w / (k² · S_G)`` before
rounding, so every backend binds the same integers.  The ``reference``
backend runs the fused forward as staged int64 passes (integer ``BT x B``,
requantization, int64 tap contraction) and is the bit-exact oracle.  The
``fast`` backend carries the same integers in float64 through its blocked,
cache-resident tap-major pipeline, so the contraction runs on BLAS; float64
represents every integer below 2**53 exactly, so as long as every
accumulator stays below that bound its result is bit-identical to the int64
one.  :func:`integer_winograd_conv2d` enforces the bound
(``Cin · (2**(wino_bits-1))² < 2**53``) before it runs, and also rejects
transforms whose ``BT`` is not integral (e.g. F6).

:func:`calibrate_tapwise_scales` reads the per-tap maxima it needs from the
same fused forward, through the scale callbacks of a
:class:`~repro.kernels.TapFakeQuant` that quantize nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ..kernels import KernelBackend, TapFakeQuant, TapRequant, get_backend
from ..winograd.tiling import pad_for_tiling
from ..winograd.transforms import (WinogradTransform, _fractional_lcm,
                                   integer_transform_matrices)
from .quantizer import compute_scale, quant_range

__all__ = ["TapwiseScales", "calibrate_tapwise_scales", "integer_winograd_conv2d",
           "quantize_dequantize_spatial", "accumulator_bits_required"]


@dataclass
class TapwiseScales:
    """All scale factors of one tap-wise quantized Winograd layer.

    Attributes
    ----------
    act_spatial:
        Scalar scale of the spatial-domain activations (int8).
    weight_spatial:
        Scalar scale of the spatial-domain weights (int8).
    input_wino:
        ``(alpha, alpha)`` tap-wise scales ``S_B`` of the input transform.
    weight_wino:
        ``(alpha, alpha)`` tap-wise scales ``S_G`` of the weight transform.
    """

    act_spatial: float
    weight_spatial: float
    input_wino: np.ndarray
    weight_wino: np.ndarray

    @property
    def output_wino(self) -> np.ndarray:
        """``S_BG = S_B ⊙ S_G`` — the rescale applied before the back-transform."""
        return self.input_wino * self.weight_wino


def quantize_dequantize_spatial(values: np.ndarray, scale: float,
                                bits: int) -> np.ndarray:
    """Fake-quantize ``values`` with a scalar spatial-domain scale (Eq. 2)."""
    return np.clip(np.rint(values / scale), *quant_range(bits)) * scale


def calibrate_tapwise_scales(x: np.ndarray, weight: np.ndarray,
                             transform: WinogradTransform,
                             spatial_bits: int = 8, wino_bits: int = 8,
                             power_of_two: bool = False,
                             padding: int = 1,
                             backend: str | KernelBackend | None = None,
                             ) -> TapwiseScales:
    """Derive tap-wise scales from one batch of data (max calibration, Eq. 2).

    The per-tap maxima of ``BT x B`` and ``G f GT`` come from one fused
    ``winograd_forward`` on the spatially fake-quantized operands: the scale
    callbacks of its :class:`~repro.kernels.TapFakeQuant` see both sides'
    Winograd-domain values, record their ``|max|`` per tap and return
    ``None``, so nothing is quantized.
    """
    act_scale = float(compute_scale(np.abs(x).max(), spatial_bits))
    weight_scale = float(compute_scale(np.abs(weight).max(), spatial_bits))

    x_hat = quantize_dequantize_spatial(x, act_scale, spatial_bits)
    w_hat = quantize_dequantize_spatial(weight, weight_scale, spatial_bits)

    tap_max = {}

    def record(side):
        def scale(values):
            tap_max[side] = np.abs(values).max(axis=tuple(range(values.ndim - 2)))
            return None
        return scale

    padded, out_h, out_w = pad_for_tiling(x_hat, transform.m, transform.r, padding)
    get_backend(backend).winograd_forward(
        padded, w_hat, transform, out_h, out_w,
        quant=TapFakeQuant(wino_bits, wino_bits, record("input"), record("weight")))
    input_scale = compute_scale(tap_max["input"], wino_bits)
    weight_scale_wino = compute_scale(tap_max["weight"], wino_bits)
    if power_of_two:
        input_scale = np.power(2.0, np.ceil(np.log2(input_scale)))
        weight_scale_wino = np.power(2.0, np.ceil(np.log2(weight_scale_wino)))
    return TapwiseScales(act_scale, weight_scale, input_scale, weight_scale_wino)


def integer_winograd_conv2d(x: np.ndarray, weight: np.ndarray,
                            transform: WinogradTransform,
                            scales: TapwiseScales,
                            bias: np.ndarray | None = None,
                            spatial_bits: int = 8, wino_bits: int = 8,
                            padding: int = 1,
                            return_stats: bool = False,
                            backend: str | KernelBackend | None = None,
                            plan=None):
    """Run the tap-wise quantized Winograd convolution with integer arithmetic.

    Returns the floating-point output (after the final de-quantization) and,
    optionally, statistics about the integer intermediates (used to check the
    accumulator bit widths the hardware needs).

    The geometry (padding spec, tile counts, output size) comes from a cached
    :class:`~repro.engine.LayerPlan`: pass one via ``plan`` (it takes
    precedence over ``transform``/``padding``/``backend``), or let the
    function lower/look one up in the shared plan cache.  Either way repeated
    same-shape calls — the accelerator simulation sweeps — reuse interned
    geometry instead of re-deriving it.  Raises ``ValueError`` when the
    transform's ``BT`` is not integral or an accumulator could reach 2**53
    (see the module docstring).
    """
    from .. import engine

    if plan is None:
        plan = engine.lower_winograd(x.shape, weight.shape, transform, padding,
                                     backend=backend)
    transform = plan.transform
    a = transform.alpha
    cout, cin = weight.shape[:2]
    if integer_transform_matrices(transform).BT is None:
        raise ValueError(
            f"transform {transform.name or transform} has a non-integer BT; "
            "the integer path supports F2/F4-style integral input transforms")
    if cin * (1 << (int(wino_bits) - 1)) ** 2 >= 1 << 53:
        raise ValueError(
            f"integer Winograd accumulator bound Cin * 2**(2*(wino_bits-1)) = "
            f"{cin} * 2**{2 * (int(wino_bits) - 1)} reaches 2**53 (wino_bits="
            f"{wino_bits}); the integer path is only exact below 2**53")
    qmin_s, qmax_s = quant_range(spatial_bits)
    qmin_w, qmax_w = quant_range(wino_bits)

    # Spatial-domain quantization (Eq. 2) — these are the int8 tensors that
    # live in DDR / L1 on the accelerator.
    x_q = x / scales.act_spatial
    np.rint(x_q, out=x_q)
    x_int = np.clip(x_q, qmin_s, qmax_s, out=x_q).astype(np.min_scalar_type(qmin_s))

    # Weight transform on the int8 weights with the integral k·G, one GEMM into
    # the tap-major (a², Cout, Cin) layout, then requantized tap-wise with one
    # factor s_w / (k² · S_G) (this is what the WT_XFORM engine produces).
    k, g_pair = _integral_g(transform)
    w_int = np.clip(np.rint(weight / scales.weight_spatial), qmin_s, qmax_s)
    w_r = (g_pair @ w_int.reshape(cout * cin, -1).T).reshape(a * a, cout, cin)
    w_r *= (scales.weight_spatial / (k * k * scales.weight_wino)).reshape(a * a, 1, 1)
    np.rint(w_r, out=w_r)
    np.clip(w_r, qmin_w, qmax_w, out=w_r)

    # Integer BT x B, tap-wise requantization, the integer tap-wise MatMul
    # (the Cube Unit), the single S_BG rescale and AT y A: one fused call.
    quant = TapRequant(in_ratio=scales.act_spatial / scales.input_wino,
                       qmin=qmin_w, qmax=qmax_w, out_scale=scales.output_wino)
    stats = {} if return_stats else None
    out = engine.execute(plan, x_int, weight, bias, w_r=w_r, quant=quant,
                         stats=stats)

    if not return_stats:
        return out
    stats["accumulator_bits"] = accumulator_bits_required(stats["accumulator_int_max"])
    stats["input_utilisation"] = float(stats.pop("input_q_max") / max(qmax_w, 1))
    stats["weight_utilisation"] = float(np.abs(w_r).max() / max(qmax_w, 1))
    return out, stats


@lru_cache(maxsize=16)
def _integral_g(transform: WinogradTransform) -> tuple[int, np.ndarray]:
    """``(k, kron(k·G, k·G))`` for the smallest ``k`` that makes ``k·G``
    integral: the ``(a², r²)`` matrix of the exact weight transform."""
    k = _fractional_lcm(transform.G)
    g_int = np.rint(k * transform.G)
    g_pair = np.kron(g_int, g_int)
    g_pair.setflags(write=False)
    return k, g_pair


def accumulator_bits_required(max_abs_value: int) -> int:
    """Signed bit width needed to hold ``max_abs_value`` without overflow."""
    if max_abs_value <= 0:
        return 1
    return int(np.ceil(np.log2(max_abs_value + 1))) + 1
