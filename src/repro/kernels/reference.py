"""Reference kernel backend: the seed implementations, kept verbatim.

These are the generic ``np.einsum`` formulations and Python loops the
reproduction shipped with (see the seed revisions of
``repro/winograd/tiling.py``, ``repro/winograd/conv.py`` and
``repro/nn/functional.py``).  They are intentionally frozen here so that the
``fast`` backend can be equivalence-tested against them: any numerical
divergence between the two backends is a bug in ``fast``, never a drift of
this file.

The einsum contraction paths are memoised (:mod:`repro.kernels.einsum_cache`)
— the contraction order is the one ``optimize=True`` picks, computed once per
operand signature instead of on every call.  The fused entry points every
backend provides (:func:`winograd_forward`, :func:`winograd_autograd`) are
composed here from the seed's staged primitives (:func:`extract_tiles`,
:func:`tile_contract` and its adjoints, :func:`scatter_tiles_add`), in the
order of the seed's composed autograd graph, so their results are
bit-identical to it — including the tap-wise fake-quantized training step
(``quant=TapFakeQuant``), whose quantizers sat in that graph between the
transforms and the contraction.  The integer tap-wise forward
(``winograd_forward(quant=TapRequant)``) is composed the same way, with int64
arithmetic throughout, and is the oracle for that path.  The staged
primitives are module functions only, not :class:`KernelBackend` members:
no workload calls them, and the test oracle imports them from here.
"""

from __future__ import annotations

import numpy as np

from .einsum_cache import cached_einsum
from .fake_quant import fake_quantize, learned_scale_grad, signed_range
from .registry import KernelBackend, TapFakeQuant, TapRequant

__all__ = ["BACKEND"]


# --------------------------------------------------------------------------- #
# Tap-wise contraction (seed: repro/winograd/conv.py)
# --------------------------------------------------------------------------- #
def tile_contract(tiles_w: np.ndarray, weight_w: np.ndarray) -> np.ndarray:
    return cached_einsum("ncijab,ocab->noijab", tiles_w, weight_w)


def tile_contract_dx(grad: np.ndarray, weight_w: np.ndarray) -> np.ndarray:
    return cached_einsum("noijab,ocab->ncijab", grad, weight_w)


def tile_contract_dw(grad: np.ndarray, tiles_w: np.ndarray) -> np.ndarray:
    return cached_einsum("noijab,ncijab->ocab", grad, tiles_w)


# --------------------------------------------------------------------------- #
# Pair transforms (seed: broadcast matmul, e.g. ``BT @ tiles @ BT.T``)
# --------------------------------------------------------------------------- #
def apply_transform_pair(tiles: np.ndarray, left: np.ndarray,
                         right: np.ndarray) -> np.ndarray:
    return left @ tiles @ right


# --------------------------------------------------------------------------- #
# Tiling primitives (seed: repro/winograd/tiling.py)
# --------------------------------------------------------------------------- #
def extract_tiles(x_padded: np.ndarray, m: int, r: int) -> np.ndarray:
    alpha = m + r - 1
    n, c, hp, wp = x_padded.shape
    n_h = (hp - (r - 1)) // m
    n_w = (wp - (r - 1)) // m
    s0, s1, s2, s3 = x_padded.strides
    tiles = np.lib.stride_tricks.as_strided(
        x_padded,
        shape=(n, c, n_h, n_w, alpha, alpha),
        strides=(s0, s1, s2 * m, s3 * m, s2, s3),
        writeable=False,
    )
    return np.ascontiguousarray(tiles)


def scatter_tiles_add(grad_tiles: np.ndarray, padded_shape: tuple[int, int, int, int],
                      m: int, r: int) -> np.ndarray:
    alpha = m + r - 1
    out = np.zeros(padded_shape, dtype=grad_tiles.dtype)
    n_h, n_w = grad_tiles.shape[2], grad_tiles.shape[3]
    for i in range(n_h):
        hs = i * m
        for j in range(n_w):
            ws = j * m
            out[:, :, hs:hs + alpha, ws:ws + alpha] += grad_tiles[:, :, i, j]
    return out


# --------------------------------------------------------------------------- #
# im2col lowering and its GEMMs (seed: repro/nn/functional.py)
# --------------------------------------------------------------------------- #
def im2col(x: np.ndarray, kernel: tuple[int, int], stride: int = 1,
           padding: int = 0) -> np.ndarray:
    n, c, h, w = x.shape
    kh, kw = kernel
    if padding > 0:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    hp, wp = x.shape[2], x.shape[3]
    out_h = (hp - kh) // stride + 1
    out_w = (wp - kw) // stride + 1

    s0, s1, s2, s3 = x.strides
    windows = np.lib.stride_tricks.as_strided(
        x,
        shape=(n, c, out_h, out_w, kh, kw),
        strides=(s0, s1, s2 * stride, s3 * stride, s2, s3),
        writeable=False,
    )
    cols = windows.transpose(0, 1, 4, 5, 2, 3).reshape(n, c * kh * kw, out_h * out_w)
    return np.ascontiguousarray(cols)


def col2im(cols: np.ndarray, input_shape: tuple[int, int, int, int],
           kernel: tuple[int, int], stride: int = 1, padding: int = 0) -> np.ndarray:
    n, c, h, w = input_shape
    kh, kw = kernel
    hp, wp = h + 2 * padding, w + 2 * padding
    out_h = (hp - kh) // stride + 1
    out_w = (wp - kw) // stride + 1

    x = np.zeros((n, c, hp, wp), dtype=cols.dtype)
    cols_reshaped = cols.reshape(n, c, kh, kw, out_h, out_w)
    for i in range(kh):
        i_end = i + stride * out_h
        for j in range(kw):
            j_end = j + stride * out_w
            x[:, :, i:i_end:stride, j:j_end:stride] += cols_reshaped[:, :, i, j]
    if padding > 0:
        x = x[:, :, padding:-padding, padding:-padding]
    return x


def conv2d_gemm(w2d: np.ndarray, cols: np.ndarray,
                out: np.ndarray | None = None) -> np.ndarray:
    res = cached_einsum("ok,nkp->nop", w2d, cols)
    if out is None:
        return res
    np.copyto(out, res)
    return out


def conv2d_gemm_dw(grad2d: np.ndarray, cols: np.ndarray) -> np.ndarray:
    return cached_einsum("nop,nkp->ok", grad2d, cols)


def conv2d_gemm_dcols(w2d: np.ndarray, grad2d: np.ndarray) -> np.ndarray:
    return cached_einsum("ok,nop->nkp", w2d, grad2d)


# --------------------------------------------------------------------------- #
# Fused Winograd entry points, composed from the primitives above
# (seed: repro/winograd/conv.py's composed graph)
# --------------------------------------------------------------------------- #
def _fake_quant_side(values: np.ndarray, scale_fn, bits: int):
    """``(quantized, mask, scale)`` of one :class:`TapFakeQuant` side.

    ``scale_fn`` returning ``None`` leaves the side unquantized (no mask)."""
    scale = scale_fn(values)
    if scale is None:
        return values, None, None
    q, inside = fake_quantize(values, scale, *signed_range(bits))
    return q, inside, scale


def _winograd_stages(x_padded: np.ndarray, weight_wino: np.ndarray, transform,
                     quant: TapFakeQuant | None = None):
    """``BT x B`` tiles, the two contraction operands and the uncropped
    ``(N, Cout, n_h*m, n_w*m)`` output.

    Each operand is a ``(values, mask, scale)`` triple: with ``quant`` the
    fake-quantized tap side (input first, then weight, as the layer's
    quantizers ran in the seed's composed graph), else the plain values.
    """
    t = transform
    tiles_w = apply_transform_pair(extract_tiles(x_padded, t.m, t.r), t.BT, t.B)
    if quant is None:
        sides = ((tiles_w, None, None), (weight_wino, None, None))
    else:
        sides = (_fake_quant_side(tiles_w, quant.input_scale, quant.input_bits),
                 _fake_quant_side(weight_wino, quant.weight_scale,
                                  quant.weight_bits))
    prod = tile_contract(sides[0][0], sides[1][0])
    out_tiles = apply_transform_pair(prod, t.AT, t.A)
    n, cout, n_h, n_w, m, _ = out_tiles.shape
    full = out_tiles.transpose(0, 1, 2, 4, 3, 5).reshape(
        n, cout, n_h * m, n_w * m)
    return tiles_w, sides, full


def _integer_winograd_forward(x_padded: np.ndarray, weight_wino: np.ndarray,
                              transform, quant: TapRequant, stats: dict | None
                              ) -> np.ndarray:
    """Staged int64 tap-wise pipeline: the oracle of the integer path.

    Integer ``BT x B``, tap-wise requantization to ``[qmin, qmax]``, the int64
    tap contraction (the Cube Unit), then the single ``S_BG`` rescale and the
    float ``AT y A``; returns the uncropped output.
    """
    t = transform
    bt_int = np.rint(t.BT).astype(np.int64)      # integral: checked at lowering
    tiles_w_exact = apply_transform_pair(extract_tiles(x_padded, t.m, t.r),
                                         bt_int, bt_int.T)
    tiles_w_q = np.clip(np.rint(tiles_w_exact * quant.in_ratio), quant.qmin,
                        quant.qmax).astype(np.int64)
    acc = tile_contract(tiles_w_q, weight_wino.astype(np.int64))
    out_tiles = apply_transform_pair(acc.astype(np.float64) * quant.out_scale,
                                     t.AT, t.A)
    if stats is not None:
        stats.update(input_tile_int_max=int(np.abs(tiles_w_exact).max()),
                     accumulator_int_max=int(np.abs(acc).max()),
                     input_q_max=int(np.abs(tiles_w_q).max()))
    n, cout, n_h, n_w, m, _ = out_tiles.shape
    return out_tiles.transpose(0, 1, 2, 4, 3, 5).reshape(n, cout, n_h * m, n_w * m)


def winograd_forward(x_padded: np.ndarray, weight: np.ndarray, transform,
                     out_h: int, out_w: int,
                     w_r: np.ndarray | None = None,
                     out: np.ndarray | None = None,
                     quant: TapRequant | TapFakeQuant | None = None,
                     stats: dict | None = None) -> np.ndarray:
    """Whole Winograd pipeline on the already-padded input, without bias.

    A given tap-major ``w_r`` is only re-laid out, and a given uncropped
    ``out`` buffer is filled, so both leave the result bit-identical.  With
    a :class:`TapRequant` ``quant`` the integer pipeline of
    :func:`_integer_winograd_forward` runs; with a :class:`TapFakeQuant` the
    fake-quantized forward of :func:`winograd_autograd`.
    """
    t = transform
    if w_r is None:
        weight_wino = apply_transform_pair(weight, t.G, t.G.T)
    else:
        a = t.alpha
        weight_wino = np.ascontiguousarray(
            w_r.reshape((a, a) + w_r.shape[1:]).transpose(2, 3, 0, 1))
    if isinstance(quant, TapRequant):
        full = _integer_winograd_forward(x_padded, weight_wino, t, quant, stats)
    else:
        _, _, full = _winograd_stages(x_padded, weight_wino, t, quant)
    if out is not None:
        if out.shape != full.shape or out.dtype != full.dtype:
            raise ValueError(f"out workspace must be {full.shape} of "
                             f"{full.dtype}, got {out.shape} of {out.dtype}")
        np.copyto(out, full)
        if out.shape[2:] == (out_h, out_w):
            return out
    return np.ascontiguousarray(full[:, :, :out_h, :out_w])


def _side_grads(grad: np.ndarray, values: np.ndarray, side, log2_t,
                bits: int):
    """Adjoint of one fake-quant side of ``values``: ``(d values, d log2 t
    or None)``."""
    _, mask, scale = side
    if mask is None:
        return grad, None
    dlog2 = None
    if log2_t is not None:
        dlog2 = learned_scale_grad(grad, values, scale, *signed_range(bits))
    return grad * mask, dlog2


def winograd_autograd(x_padded: np.ndarray, weight: np.ndarray, transform,
                      out_h: int, out_w: int,
                      quant: TapFakeQuant | None = None):
    """Forward plus ``backward(grad) -> (dx_padded, dweight)``: the adjoints
    of the composed graph's stages in reverse order.

    With ``quant`` the fake-quant nodes sit between the transforms and the
    contraction exactly where the seed's composed graph put them, and the
    backward returns ``(dx_padded, dweight, dlog2_t_input,
    dlog2_t_weight)``, bit-identical to that graph.
    """
    t = transform
    weight_wino = apply_transform_pair(weight, t.G, t.G.T)
    tiles_w, sides, full = _winograd_stages(x_padded, weight_wino, t, quant)
    out = np.ascontiguousarray(full[:, :, :out_h, :out_w])
    full_shape, padded_shape = full.shape, x_padded.shape
    (tiles_q, _, _), (weight_q, _, _) = sides

    def backward(grad: np.ndarray) -> tuple:
        # Adjoint of the output assembly: zero-extend, then cut m x m tiles.
        n, cout, full_h, full_w = full_shape
        m = t.m
        g_full = np.zeros(full_shape, dtype=grad.dtype)
        g_full[:, :, :out_h, :out_w] = grad
        g_tiles = np.ascontiguousarray(g_full.reshape(
            n, cout, full_h // m, m, full_w // m, m
        ).transpose(0, 1, 2, 4, 3, 5))
        dprod = apply_transform_pair(g_tiles, t.AT.T, t.A.T)
        dtiles_w = tile_contract_dx(dprod, weight_q)
        dweight_w = tile_contract_dw(dprod, tiles_q)
        if quant is not None:
            dtiles_w, dlog2_in = _side_grads(dtiles_w, tiles_w, sides[0],
                                             quant.input_log2_t,
                                             quant.input_bits)
            dweight_w, dlog2_w = _side_grads(dweight_w, weight_wino, sides[1],
                                             quant.weight_log2_t,
                                             quant.weight_bits)
        dtiles = apply_transform_pair(dtiles_w, t.BT.T, t.B.T)
        grads = (scatter_tiles_add(dtiles, padded_shape, t.m, t.r),
                 apply_transform_pair(dweight_w, t.G.T, t.G))
        if quant is None:
            return grads
        return grads + (dlog2_in, dlog2_w)

    return out, backward


BACKEND = KernelBackend(
    name="reference",
    apply_transform_pair=apply_transform_pair,
    im2col=im2col,
    col2im=col2im,
    conv2d_gemm=conv2d_gemm,
    conv2d_gemm_dw=conv2d_gemm_dw,
    conv2d_gemm_dcols=conv2d_gemm_dcols,
    winograd_forward=winograd_forward,
    winograd_autograd=winograd_autograd,
)
