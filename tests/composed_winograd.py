"""Test oracle: the composed Winograd autograd graph the fused nodes replaced.

Every stage of the Winograd convolution is its own autograd node over the
seed primitives of :mod:`repro.kernels.reference` (tile extraction, the
``BT x B`` / ``G f GT`` / ``AT y A`` pair transforms, the tap contraction,
output assembly), whatever backend is active, and the tap-wise
quantized layer's forward injects its Winograd-domain fake quantization
between the transforms and the contraction.  The fake-quant formulas are kept
here as they were written before they moved into :mod:`repro.kernels`
(four-temporary ``clip(rint(x / s)) * s``), so a bit-identical comparison
against this module checks the fused nodes against the original arithmetic,
not against themselves.
"""

from __future__ import annotations

import numpy as np

from repro.kernels import reference as ref
from repro.nn import functional as F
from repro.nn.tensor import Tensor, as_tensor
from repro.quant.power_of_two import pow2_gradient_scale
from repro.quant.quantizer import quant_range
from repro.winograd.tiling import assemble_output_tiles, pad_for_tiling


# --------------------------------------------------------------------------- #
# Stage nodes
# --------------------------------------------------------------------------- #
def extract_tiles(x: Tensor, transform, padding: int):
    """``(N, Cin, nH, nW, a, a)`` tiles of the padded input, plus the output
    size; the adjoint is the overlap scatter-add, cropped."""
    m, r = transform.m, transform.r
    padded, out_h, out_w = pad_for_tiling(x.data, m, r, padding)
    tiles = ref.extract_tiles(padded, m, r)
    h, w = x.shape[2], x.shape[3]

    def backward(grad):
        grad_padded = ref.scatter_tiles_add(grad, padded.shape, m, r)
        return (grad_padded[:, :, padding:padding + h, padding:padding + w],)

    return Tensor.from_op(tiles, (x,), backward), out_h, out_w


def transform_pair(t: Tensor, left: np.ndarray, right: np.ndarray) -> Tensor:
    """``left @ t @ right`` over the trailing tile axes."""
    data = ref.apply_transform_pair(t.data, left, right)
    return Tensor.from_op(
        data, (t,), lambda grad: (ref.apply_transform_pair(grad, left.T, right.T),))


def tile_contract(tiles_w: Tensor, weight_w: Tensor) -> Tensor:
    """Tap-wise multiply-accumulate over input channels."""
    xw, ww = tiles_w.data, weight_w.data
    return Tensor.from_op(
        ref.tile_contract(xw, ww), (tiles_w, weight_w),
        lambda grad: (ref.tile_contract_dx(grad, ww), ref.tile_contract_dw(grad, xw)))


def assemble(out_tiles: Tensor, out_h: int, out_w: int) -> Tensor:
    """``m x m`` output tiles -> cropped feature map."""
    n, cout, n_h, n_w, m, _ = out_tiles.shape

    def backward(grad):
        padded = np.zeros((n, cout, n_h * m, n_w * m), dtype=grad.dtype)
        padded[:, :, :out_h, :out_w] = grad
        tiles = padded.reshape(n, cout, n_h, m, n_w, m).transpose(0, 1, 2, 4, 3, 5)
        return (np.ascontiguousarray(tiles),)

    return Tensor.from_op(assemble_output_tiles(out_tiles.data, out_h, out_w),
                          (out_tiles,), backward)


def composed_winograd(x, weight, transform, bias=None, padding: int = 1,
                      input_hook=None, weight_hook=None) -> Tensor:
    """The composed Winograd convolution, with optional Winograd-domain hooks
    on ``BT x B`` and ``G f GT``."""
    x, weight = as_tensor(x), as_tensor(weight)
    t = transform
    tiles, out_h, out_w = extract_tiles(x, t, padding)
    tiles_w = transform_pair(tiles, t.BT, t.B)
    weight_w = transform_pair(weight, t.G, t.G.T)
    if input_hook is not None:
        tiles_w = input_hook(tiles_w)
    if weight_hook is not None:
        weight_w = weight_hook(weight_w)
    prod = tile_contract(tiles_w, weight_w)
    out = assemble(transform_pair(prod, t.AT, t.A), out_h, out_w)
    if bias is not None:
        out = out + bias.reshape(1, weight.shape[0], 1, 1)
    return out


# --------------------------------------------------------------------------- #
# Fake quantization, as originally written
# --------------------------------------------------------------------------- #
def fake_quantize(x: Tensor, scale, n_bits: int) -> Tensor:
    """Quantize-dequantize with the clipped straight-through estimator."""
    scale = np.asarray(scale, dtype=np.float64)
    qmin, qmax = quant_range(n_bits)
    ratio = x.data / scale
    q = np.clip(np.rint(ratio), qmin, qmax)
    out = q * scale
    inside = (ratio >= qmin) & (ratio <= qmax)
    return Tensor.from_op(out, (x,), lambda grad: (grad * inside,))


def learned_pow2_fake_quantize(x: Tensor, log2_t, n_bits: int) -> Tensor:
    """Fake quantization with a learned power-of-two scale (Eq. 3)."""
    qmin, qmax = quant_range(n_bits)
    scale = pow2_gradient_scale(log2_t.data)
    ratio = x.data / scale
    rounded = np.rint(ratio)
    clipped = np.clip(rounded, qmin, qmax)
    out = clipped * scale
    inside = (ratio >= qmin) & (ratio <= qmax)
    param_shape = log2_t.shape

    def backward(grad):
        dx = grad * inside
        residual = np.where(inside, rounded - ratio, clipped)
        dscale_log = scale * np.log(2.0) * residual
        dlog2 = grad * dscale_log
        extra = dlog2.ndim - len(param_shape)
        if extra > 0:
            dlog2 = dlog2.sum(axis=tuple(range(extra)))
        sum_axes = tuple(ax for ax, dim in enumerate(param_shape)
                         if dim == 1 and dlog2.shape[ax] != 1)
        if sum_axes:
            dlog2 = dlog2.sum(axis=sum_axes, keepdims=True)
        return (dx, dlog2.reshape(param_shape))

    return Tensor.from_op(out, (x, log2_t), backward)


def quantizer_forward(q, x: Tensor) -> Tensor:
    """A :class:`repro.quant.Quantizer` forward with the original formulas."""
    if not q.enabled:
        return x
    if q.is_learned():
        return learned_pow2_fake_quantize(x, q.log2_t, q.n_bits)
    if q.collect_stats and q.training or not q.observer.has_data():
        q.observer.update(x.data)
    return fake_quantize(x, q.scale(), q.n_bits)


def composed_qat_forward(layer, x) -> Tensor:
    """:class:`repro.quant.QuantWinogradConv2d`'s forward on the composed
    graph: spatial fake-quant, then the Winograd-domain quantizers as
    hooks."""
    x = as_tensor(x)
    if layer.act_quant is not None:
        x = quantizer_forward(layer.act_quant, x)
    weight = layer.weight
    if layer.weight_quant is not None:
        weight = quantizer_forward(layer.weight_quant, weight)
    if not layer.winograd_aware and layer.training:
        return F.conv2d(x, weight, layer.bias, stride=1, padding=layer.padding,
                        backend="reference")
    return composed_winograd(
        x, weight, layer.transform, layer.bias, layer.padding,
        input_hook=lambda t: quantizer_forward(layer.input_wino_quant, t),
        weight_hook=lambda t: quantizer_forward(layer.weight_wino_quant, t))
