"""The staged Winograd primitives of the eager baselines in ``run_bench.py``.

Before :mod:`repro.engine` every Winograd forward ran as a graph of staged
kernels: tile extraction, the tap contraction and its two adjoints, and the
overlap scatter-add.  The fused ``winograd_forward`` / ``winograd_autograd``
replaced them in :mod:`repro.kernels`; these are the ``fast`` backend's
batched-GEMM versions as they were, kept so the planned-vs-eager pairs of
``run_bench.py`` keep measuring the same eager graph.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.fast import _tap_view

__all__ = ["tile_contract", "tile_contract_dx", "tile_contract_dw",
           "extract_tiles", "scatter_tiles_add"]


def _tap_major(x: np.ndarray) -> np.ndarray:
    """``(O1, O2, ..., a, a) -> (a², O1, O2·...·Ok)`` contiguous reshape.

    Moves the two tap axes to the front (flattened) and keeps the first
    remaining axis as the GEMM row/column dimension.
    """
    a = x.shape[-1]
    lead = x.shape[:-2]
    perm = (x.ndim - 2, x.ndim - 1) + tuple(range(x.ndim - 2))
    flat = np.ascontiguousarray(x.transpose(perm)).reshape(a * a, lead[0], -1)
    return flat


# --------------------------------------------------------------------------- #
# Tap-wise contraction as alpha² batched GEMMs
# --------------------------------------------------------------------------- #
def tile_contract(tiles_w: np.ndarray, weight_w: np.ndarray) -> np.ndarray:
    """Forward: ``out[n,o,i,j,:,:] = sum_c w[o,c,:,:] * x[n,c,i,j,:,:]``."""
    n, cin, nh, nw, a, _ = tiles_w.shape
    cout = weight_w.shape[0]
    # (a², Cin, N·nH·nW): tap-major activations, channels as the GEMM K dim.
    x_r = np.ascontiguousarray(tiles_w.transpose(4, 5, 1, 0, 2, 3)
                               ).reshape(a * a, cin, n * nh * nw)
    # (a², Cout, Cin): tap-major weights.
    w_r = _tap_major(weight_w)
    prod = np.matmul(w_r, x_r)                       # (a², Cout, N·nH·nW)
    out = prod.reshape(a, a, cout, n, nh, nw).transpose(3, 2, 4, 5, 0, 1)
    return np.ascontiguousarray(out)


def tile_contract_dx(grad: np.ndarray, weight_w: np.ndarray) -> np.ndarray:
    """Adjoint wrt the input tiles: ``(a², Cin, Cout) @ (a², Cout, M)``."""
    n, cout, nh, nw, a, _ = grad.shape
    cin = weight_w.shape[1]
    g_r = np.ascontiguousarray(grad.transpose(4, 5, 1, 0, 2, 3)
                               ).reshape(a * a, cout, n * nh * nw)
    wt_r = np.ascontiguousarray(weight_w.transpose(2, 3, 1, 0)
                                ).reshape(a * a, cin, cout)
    dx = np.matmul(wt_r, g_r)                        # (a², Cin, N·nH·nW)
    out = dx.reshape(a, a, cin, n, nh, nw).transpose(3, 2, 4, 5, 0, 1)
    return np.ascontiguousarray(out)


def tile_contract_dw(grad: np.ndarray, tiles_w: np.ndarray) -> np.ndarray:
    """Adjoint wrt the weights: ``(a², Cout, M) @ (a², M, Cin)``."""
    n, cout, nh, nw, a, _ = grad.shape
    cin = tiles_w.shape[1]
    g_r = np.ascontiguousarray(grad.transpose(4, 5, 1, 0, 2, 3)
                               ).reshape(a * a, cout, n * nh * nw)
    x_r = np.ascontiguousarray(tiles_w.transpose(4, 5, 0, 2, 3, 1)
                               ).reshape(a * a, n * nh * nw, cin)
    dw = np.matmul(g_r, x_r)                         # (a², Cout, Cin)
    return np.ascontiguousarray(dw.reshape(a, a, cout, cin).transpose(2, 3, 0, 1))


# --------------------------------------------------------------------------- #
# Tiling primitives
# --------------------------------------------------------------------------- #
def extract_tiles(x_padded: np.ndarray, m: int, r: int) -> np.ndarray:
    """Overlapping tile view ``(N, C, n_h, n_w, alpha, alpha)`` — no copy.

    The returned array is a read-only strided view into ``x_padded`` (the
    pipeline's :func:`_tap_view`, axes permuted); the GEMM consumers buffer
    it internally, so materialising a contiguous copy here (as the reference
    backend does) would only add memory traffic.
    """
    return _tap_view(x_padded, m, m + r - 1).transpose(3, 2, 4, 5, 0, 1)


def scatter_tiles_add(grad_tiles: np.ndarray, padded_shape: tuple[int, int, int, int],
                      m: int, r: int) -> np.ndarray:
    """Adjoint of :func:`extract_tiles`, vectorised over all tiles.

    Each ``alpha x alpha`` tile is split into ``ceil(alpha/m)²`` blocks of at
    most ``m x m``; for a fixed block index the scatter targets of all tiles
    are disjoint ``m``-strided slices, so the whole scatter collapses to a few
    (4 for F2/F4) strided ``+=`` operations on a block view of the output.
    """
    alpha = m + r - 1
    n, c, hp, wp = padded_shape
    n_h, n_w = grad_tiles.shape[2], grad_tiles.shape[3]
    nb = -(-alpha // m)                       # blocks per tile dimension
    big = np.zeros((n, c, (n_h + nb - 1) * m, (n_w + nb - 1) * m),
                   dtype=grad_tiles.dtype)
    view = big.reshape(n, c, n_h + nb - 1, m, n_w + nb - 1, m)
    for bi in range(nb):
        h0 = bi * m
        hb = min(m, alpha - h0)
        for bj in range(nb):
            w0 = bj * m
            wb = min(m, alpha - w0)
            block = grad_tiles[:, :, :, :, h0:h0 + hb, w0:w0 + wb]
            view[:, :, bi:bi + n_h, :hb, bj:bj + n_w, :wb] += \
                block.transpose(0, 1, 2, 4, 3, 5)
    if big.shape[2] == hp and big.shape[3] == wp:
        return big
    return np.ascontiguousarray(big[:, :, :hp, :wp])
