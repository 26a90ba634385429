"""Differential tests of the float Winograd kernels: ``fast`` against ``reference``.

One hypothesis strategy draws layer geometries the fixed-shape tests never
reach: F2, F4 and F6, padding 0/1/2, odd and prime spatial sizes that do not
tile evenly, batches of 1 to 9 images (so ``fast`` folds several images into
one block, or leaves a short last block) and 1 to 64 channels, plus one
layer whose single row of F4 tiles overflows ``fast``'s block budget.  Each
layer runs through both fused kernel members of both backends:

* ``winograd_forward``, alone and with a bound tap-major ``w_r=`` and an
  uncropped ``out=`` workspace;
* ``winograd_autograd``, float and tap-wise QAT (a :class:`TapFakeQuant`
  with power-of-two per-tap scales, observed or learned), forward and every
  gradient.

``fast`` must match ``reference`` within a tolerance relative to the largest
reference value, looser for the worse-conditioned F6.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.kernels import TapFakeQuant, fast, get_backend
from repro.winograd import get_transform
from repro.winograd.tiling import pad_for_tiling, tile_counts

BACKENDS = ("fast", "reference")
# Relative to the largest reference value; over 150 drawn layers the worst
# error was 2e-15 (F2 outputs) to 3e-14 (F6 outputs, dlog2 t sums).
TOLERANCE = {"F2": 1e-12, "F4": 1e-11, "F6": 1e-10}
ODD_OR_PRIME = (3, 5, 7, 9, 11, 13, 15, 17, 19, 21, 23)
BITS = 8
# The kernels only test a side's learned log2 t against None.
LEARNED = object()


@dataclass(frozen=True)
class Layer:
    transform: str
    n: int
    cin: int
    cout: int
    h: int
    w: int
    padding: int
    learned: bool
    seed: int


@st.composite
def layers(draw) -> Layer:
    return Layer(transform=draw(st.sampled_from(("F2", "F4", "F6"))),
                 n=draw(st.integers(1, 9)),
                 cin=draw(st.integers(1, 64)),
                 cout=draw(st.integers(1, 64)),
                 h=draw(st.sampled_from(ODD_OR_PRIME)),
                 w=draw(st.sampled_from(ODD_OR_PRIME)),
                 padding=draw(st.integers(0, 2)),
                 learned=draw(st.booleans()),
                 seed=draw(st.integers(0, 2 ** 31 - 1)))


# One row of F4 tiles at Cin = 64 and 9 tiles per row is 166 KB of float64,
# more than fast's block budget, so its forward runs one row per block.
ROW_OVERFLOW = Layer("F4", n=2, cin=64, cout=5, h=7, w=35, padding=1,
                     learned=False, seed=3)


def _pow2_scale(taps: np.ndarray, axes: tuple) -> np.ndarray:
    """Per-tap power-of-two scale putting each tap's peak inside the grid."""
    peak = np.maximum(np.abs(taps).max(axis=axes), 1e-12)
    return np.power(2.0, np.ceil(np.log2(peak / (2 ** (BITS - 1) - 1))))


def _tap_fake_quant(learned: bool) -> TapFakeQuant:
    return TapFakeQuant(
        input_bits=BITS, weight_bits=BITS,
        input_scale=lambda taps: _pow2_scale(taps, (0, 1, 2, 3)),
        weight_scale=lambda taps: _pow2_scale(taps, (0, 1)),
        input_log2_t=LEARNED if learned else None,
        weight_log2_t=LEARNED if learned else None)


def _run(layer: Layer, backend: str) -> dict:
    """Every fused-kernel result of ``layer`` on ``backend``."""
    rng = np.random.default_rng(layer.seed)
    t = get_transform(layer.transform)
    x = rng.normal(size=(layer.n, layer.cin, layer.h, layer.w))
    weight = rng.normal(size=(layer.cout, layer.cin, 3, 3))
    x_padded, out_h, out_w = pad_for_tiling(x, t.m, t.r, layer.padding)
    grad = rng.normal(size=(layer.n, layer.cout, out_h, out_w))
    be = get_backend(backend)
    results = {"forward": be.winograd_forward(x_padded, weight, t, out_h, out_w)}

    n_h, n_w = tile_counts(out_h, out_w, t.m)
    full = np.empty((layer.n, layer.cout, n_h * t.m, n_w * t.m))
    bound = be.winograd_forward(
        x_padded, weight, t, out_h, out_w, out=full,
        w_r=fast.transform_weights_tap_major(weight, t))
    if full.shape[2:] == (out_h, out_w):
        assert bound is full
    results["forward_bound"] = bound

    for name, quant in (("float", None), ("qat", _tap_fake_quant(layer.learned))):
        out, backward = be.winograd_autograd(x_padded, weight, t, out_h, out_w,
                                             quant=quant)
        grads = backward(grad.copy())
        results[f"{name}_out"] = out
        results.update((f"{name}_grad{i}", g) for i, g in enumerate(grads)
                       if g is not None)
    return results


def test_row_overflow_layer_runs_one_row_per_block():
    c = ROW_OVERFLOW
    n_h, n_w = tile_counts(c.h + 2 * c.padding - 2, c.w + 2 * c.padding - 2, 4)
    row_bytes = 36 * c.cin * n_w * 8
    assert row_bytes > fast._BLOCK_BYTES
    assert [rows.stop - rows.start for _, rows in
            fast._blocks(c.n, n_h, row_bytes)] == [1] * (c.n * n_h)


@settings(max_examples=40)
@given(layers())
@example(ROW_OVERFLOW)
def test_fast_matches_reference(layer):
    got, want = (_run(layer, backend) for backend in BACKENDS)
    assert got.keys() == want.keys()
    tol = TOLERANCE[layer.transform]
    for key, ref in want.items():
        assert got[key].shape == ref.shape, key
        err = np.abs(got[key] - ref).max()
        assert err <= tol * max(np.abs(ref).max(), 1e-300), (key, err)
