"""Tiling geometry: padding feature maps for overlapping Winograd tiles.

The Winograd algorithm processes the input feature map in overlapping tiles of
``alpha x alpha`` (stride ``m``) and produces non-overlapping ``m x m`` output
tiles; the kernel backends (:mod:`repro.kernels`) gather and scatter the
tiles themselves.  The paper points out (Section V-B5) that the output spatial resolution
must be a multiple of ``m``; when it is not, the operator zero-pads and adds
ineffective computations — the same behaviour is reproduced here and surfaces
in the accelerator model as wasted tiles.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "tile_counts",
    "pad_for_tiling",
    "assemble_output_tiles",
]


def tile_counts(out_h: int, out_w: int, m: int) -> tuple[int, int]:
    """Number of Winograd tiles needed to cover an ``out_h x out_w`` output."""
    n_h = (out_h + m - 1) // m
    n_w = (out_w + m - 1) // m
    return n_h, n_w


def pad_for_tiling(x: np.ndarray, m: int, r: int, padding: int) -> tuple[np.ndarray, int, int]:
    """Zero-pad ``x`` (NCHW) so that it can be split into full Winograd tiles.

    Returns the padded array together with the convolution output size
    (before Winograd rounding), which is needed to crop the assembled result.

    The dtype of ``x`` is preserved — integer feature maps stay integer, so
    the int-only simulation path (:mod:`repro.quant.integer`) never has to
    detour through float64 just to pad.
    """
    n, c, h, w = x.shape
    out_h = h + 2 * padding - r + 1
    out_w = w + 2 * padding - r + 1
    if out_h <= 0 or out_w <= 0:
        raise ValueError("input too small for the requested kernel/padding")
    n_h, n_w = tile_counts(out_h, out_w, m)
    needed_h = n_h * m + r - 1
    needed_w = n_w * m + r - 1
    pad_bottom = needed_h - (h + 2 * padding)
    pad_right = needed_w - (w + 2 * padding)
    padded = np.pad(x, ((0, 0), (0, 0),
                        (padding, padding + max(pad_bottom, 0)),
                        (padding, padding + max(pad_right, 0))))
    return padded, out_h, out_w


def assemble_output_tiles(out_tiles: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Stitch non-overlapping ``m x m`` output tiles and crop to the true size.

    ``out_tiles`` has shape ``(N, Cout, n_h, n_w, m, m)``.
    """
    n, cout, n_h, n_w, m, m2 = out_tiles.shape
    if m != m2:
        raise ValueError("output tiles must be square")
    full = out_tiles.transpose(0, 1, 2, 4, 3, 5).reshape(n, cout, n_h * m, n_w * m)
    return np.ascontiguousarray(full[:, :, :out_h, :out_w])
