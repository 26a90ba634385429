"""Differential tests of the integer tap-wise Winograd path against ``reference``.

A seeded generator draws layer geometries the fixed-shape tests never reach
(odd and prime spatial sizes that do not tile evenly, batch 1, ``Cin = 1``,
up to 64 channels, padding 0/1/2, F2 and F4, scales calibrated on a damped
input so the requantization saturates, batches that ``fast`` folds several
images into one block, plus one layer whose single row of F4 tiles overflows
``fast``'s block budget).  ``fast`` must reproduce the
int64 ``reference`` bit for bit whenever the tap-wise scales are powers of
two.  With arbitrary scales the weights still bind to the same integers on
both backends (they are transformed exactly with the integral ``k·G``), so
only the float ``S_BG`` rescale and ``AT y A`` may differ in the last ulps.
The integer statistics must be identical either way.

The tap-wise scales themselves are checked against the seed's staged
``reference`` primitives on the same geometries: ``calibrate_tapwise_scales``
reads its per-tap maxima from one fused forward.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest

from repro import engine
from repro.kernels import fast
from repro.kernels import reference as ref
from repro.quant import (TapwiseScales, calibrate_tapwise_scales,
                         compute_scale, integer_winograd_conv2d,
                         quantize_dequantize_spatial)
from repro.winograd import get_transform, winograd_f6
from repro.winograd.tiling import pad_for_tiling, tile_counts

ODD_SIZES = (3, 5, 7, 9, 11, 13, 15, 17, 19, 21)
PRIME_SIZES = (3, 5, 7, 11, 13, 17, 19, 23)


@dataclass(frozen=True)
class Case:
    """One drawn layer; its repr is a valid constructor call."""

    transform: str
    n: int
    cin: int
    cout: int
    h: int
    w: int
    padding: int
    power_of_two: bool
    seed: int
    saturate: bool = False

    def operands(self):
        """``(transform, x, weight, bias, calibration input)``."""
        rng = np.random.default_rng(self.seed)
        t = get_transform(self.transform)
        x = np.maximum(rng.normal(size=(self.n, self.cin, self.h, self.w)), 0.0)
        weight = rng.normal(size=(self.cout, self.cin, 3, 3))
        bias = rng.normal(size=self.cout)
        return t, x, weight, bias, 0.5 * x if self.saturate else x

    def calibrate(self, backend=None):
        t, _, weight, _, x_cal = self.operands()
        return calibrate_tapwise_scales(x_cal, weight, t, power_of_two=self.power_of_two,
                                        padding=self.padding, backend=backend)

    def run(self, backend):
        t, x, weight, bias, _ = self.operands()
        scales = self.calibrate()
        return integer_winograd_conv2d(x, weight, t, scales, bias=bias,
                                       padding=self.padding, return_stats=True,
                                       backend=backend)


def draw_cases(seed: int, count: int) -> list[Case]:
    """``count`` seeded geometries cycling through the edge cases."""
    rng = np.random.default_rng(seed)
    cases = []
    for k in range(count):
        sizes = (ODD_SIZES, PRIME_SIZES, tuple(range(3, 23)))[k % 3]
        cases.append(Case(
            transform=("F2", "F4")[k % 2],
            n=1 if k % 4 == 0 else int(rng.integers(1, 4)),
            cin=1 if k % 5 == 0 else int(rng.integers(1, 65)),
            cout=int(rng.integers(1, 17)),
            h=int(rng.choice(sizes)),
            w=int(rng.choice(sizes)),
            padding=k % 3,
            power_of_two=k % 4 != 3,
            seed=int(rng.integers(2 ** 31)),
            saturate=k % 6 == 1,
        ))
    return cases


# One row of F4 tiles at Cin = 64 and 9 tiles per row is 166 KB of float64,
# more than fast's block budget, so the fused forward runs one row per block.
ROW_OVERFLOW = Case("F4", n=1, cin=64, cout=3, h=5, w=35, padding=1,
                    power_of_two=True, seed=11)
CASES = draw_cases(seed=2022, count=40) + [
    ROW_OVERFLOW,
    Case("F4", n=1, cin=1, cout=1, h=3, w=3, padding=0, power_of_two=True, seed=1),
    Case("F2", n=1, cin=1, cout=2, h=23, w=3, padding=2, power_of_two=True, seed=2),
]


def fast_blocks(case: Case) -> list[tuple[int, int]]:
    """``(images, tile rows)`` of each block ``fast`` runs ``case`` in."""
    m = get_transform(case.transform).m
    n_h, n_w = tile_counts(case.h + 2 * case.padding - 2,
                           case.w + 2 * case.padding - 2, m)
    row_bytes = (m + 2) ** 2 * case.cin * n_w * 8      # float64 carriers
    return [(images.stop - images.start, rows.stop - rows.start)
            for images, rows in fast._blocks(case.n, n_h, row_bytes)]


def test_generator_covers_the_edge_cases():
    assert {c.transform for c in CASES} == {"F2", "F4"}
    assert {c.padding for c in CASES} == {0, 1, 2}
    assert any(c.n == 1 for c in CASES) and any(c.cin == 1 for c in CASES)
    assert any(c.h in PRIME_SIZES and c.w % 2 for c in CASES)
    assert max(c.cin for c in CASES) <= 64
    assert {c.power_of_two for c in CASES} == {True, False}
    assert any(c.saturate for c in CASES)
    blocks = [fast_blocks(c) for c in CASES]
    # Several images folded into one block, and a last block holding fewer
    # images than the others.
    assert any(b[0][0] >= 2 for b in blocks)
    assert any(len(b) >= 2 and b[-1][0] < b[0][0] for b in blocks)
    # One row of tiles over budget: one row per block.
    c = ROW_OVERFLOW
    _, n_w = tile_counts(c.h + 2 * c.padding - 2, c.w + 2 * c.padding - 2, 4)
    assert 36 * c.cin * n_w * 8 > fast._BLOCK_BYTES
    assert fast_blocks(c) == [(1, 1), (1, 1)]


@pytest.mark.parametrize("case", CASES, ids=repr)
def test_fast_matches_reference(case):
    out_ref, stats_ref = case.run("reference")
    out_fast, stats_fast = case.run("fast")
    assert stats_fast == stats_ref
    assert out_fast.dtype == out_ref.dtype == np.float64
    if case.power_of_two:
        np.testing.assert_array_equal(out_fast, out_ref)
    else:
        np.testing.assert_allclose(out_fast, out_ref, rtol=1e-12,
                                   atol=1e-12 * np.abs(out_ref).max())


def staged_tap_scales(case: Case) -> tuple[np.ndarray, np.ndarray]:
    """``(S_B, S_G)`` of ``case`` from the seed's staged ``reference``
    primitives: per-tap maxima of ``BT x B`` over the extracted tiles and of
    ``G f GT``, after the int8 spatial fake quantization."""
    t, _, weight, _, x_cal = case.operands()
    x_hat = quantize_dequantize_spatial(
        x_cal, float(compute_scale(np.abs(x_cal).max(), 8)), 8)
    w_hat = quantize_dequantize_spatial(
        weight, float(compute_scale(np.abs(weight).max(), 8)), 8)
    padded, _, _ = pad_for_tiling(x_hat, t.m, t.r, case.padding)
    tiles_w = ref.apply_transform_pair(ref.extract_tiles(padded, t.m, t.r), t.BT, t.B)
    weight_w = ref.apply_transform_pair(w_hat, t.G, t.G.T)
    scales = (compute_scale(np.abs(tiles_w).max(axis=(0, 1, 2, 3)), 8),
              compute_scale(np.abs(weight_w).max(axis=(0, 1)), 8))
    if case.power_of_two:
        scales = tuple(np.power(2.0, np.ceil(np.log2(s))) for s in scales)
    return scales


@pytest.mark.parametrize("case", CASES, ids=repr)
def test_calibration_matches_staged_reference(case):
    want = staged_tap_scales(case)
    for backend in ("reference", "fast"):
        got = case.calibrate(backend)
        for side, got_s, want_s in zip(("S_B", "S_G"), (got.input_wino, got.weight_wino),
                                       want):
            if backend == "reference" or case.power_of_two:
                np.testing.assert_array_equal(got_s, want_s, err_msg=f"{backend} {side}")
            else:
                # fast's separable BT x B may round the last ulp differently.
                np.testing.assert_allclose(got_s, want_s, rtol=1e-15, atol=0,
                                           err_msg=f"{backend} {side}")


# --------------------------------------------------------------------------- #
# Exactness guard of integer_winograd_conv2d
# --------------------------------------------------------------------------- #
def _run_integer(cin: int, wino_bits: int, transform="F4", plan=None):
    t = get_transform(transform) if isinstance(transform, str) else transform
    ones = np.ones((t.alpha, t.alpha))
    return integer_winograd_conv2d(
        np.ones((1, cin, 8, 8)), np.ones((1, cin, 3, 3)), t,
        TapwiseScales(1.0, 1.0, ones, ones), wino_bits=wino_bits, plan=plan)


def test_guard_rejects_accumulators_reaching_2_53():
    # 2 * (2**26)**2 == 2**53: the first bound float64 cannot carry exactly.
    with pytest.raises(ValueError, match=r"2\*\*53"):
        _run_integer(cin=2, wino_bits=27)


def test_guard_accepts_realistic_layers():
    out = _run_integer(cin=4096, wino_bits=10)
    assert out.shape == (1, 1, 8, 8) and np.isfinite(out).all()


def test_guard_rejects_fractional_bt():
    with pytest.raises(ValueError, match="non-integer BT"):
        _run_integer(cin=2, wino_bits=8, transform=winograd_f6())


def test_guard_covers_a_passed_plan():
    plan = engine.lower_winograd((1, 2, 8, 8), (1, 2, 3, 3), winograd_f6(), 1)
    with pytest.raises(ValueError, match="non-integer BT"):
        _run_integer(cin=2, wino_bits=8, plan=plan)
