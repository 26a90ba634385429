"""Tests for the Winograd transform matrices, Cook–Toom construction, tiling."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.winograd import (WinogradTransform, bit_growth, cook_toom_matrices,
                            default_points, get_transform, inverse_weight_transform,
                            macs_reduction, transform_input_tile,
                            transform_output_tile, transform_weight,
                            verify_transform_1d, winograd_f2, winograd_f4,
                            winograd_f6)
from repro.kernels.reference import extract_tiles, scatter_tiles_add
from repro.winograd.tiling import assemble_output_tiles, pad_for_tiling, tile_counts


class TestPaperMatrices:
    def test_f2_matrices_match_paper(self):
        t = winograd_f2()
        np.testing.assert_allclose(t.BT[0], [1, 0, -1, 0])
        np.testing.assert_allclose(t.AT, [[1, 1, 1, 0], [0, 1, -1, -1]])
        np.testing.assert_allclose(t.G[1], [0.5, 0.5, 0.5])
        assert t.alpha == 4 and t.num_taps == 16

    def test_f4_matrices_match_paper(self):
        t = winograd_f4()
        np.testing.assert_allclose(t.BT[0], [4, 0, -5, 0, 1, 0])
        np.testing.assert_allclose(t.AT[3], [0, 1, -1, 8, -8, 1])
        np.testing.assert_allclose(t.G[0], [0.25, 0, 0])
        assert t.alpha == 6 and t.num_taps == 36

    @pytest.mark.parametrize("name,expected_m", [("F2", 2), ("F4", 4), ("F6", 6)])
    def test_registry(self, name, expected_m):
        assert get_transform(name).m == expected_m

    def test_unknown_transform_raises(self):
        with pytest.raises(KeyError):
            get_transform("F99")

    def test_invalid_matrix_shapes_rejected(self):
        with pytest.raises(ValueError):
            WinogradTransform(m=2, r=3, BT=np.eye(3), G=np.zeros((4, 3)),
                              AT=np.zeros((2, 4)))

    @pytest.mark.parametrize("factory,expected", [(winograd_f2, 2.25),
                                                  (winograd_f4, 4.0)])
    def test_macs_reduction(self, factory, expected):
        assert macs_reduction(factory()) == pytest.approx(expected)

    def test_bit_growth_matches_paper_magnitudes(self):
        f2 = bit_growth(winograd_f2())
        f4 = bit_growth(winograd_f4())
        # Section II: F2 needs ~2/3 extra bits, F4 ~8 (fm) and ~10 (weights).
        assert 2 <= f2["input"] <= 4
        assert 2 <= f2["weight"] <= 5
        assert 7 <= f4["input"] <= 9
        assert 9 <= f4["weight"] <= 11
        assert f4["input"] > f2["input"]
        assert f4["weight"] > f2["weight"]


class Test1DCorrectness:
    @pytest.mark.parametrize("factory", [winograd_f2, winograd_f4, winograd_f6])
    def test_paper_and_generated_transforms_compute_correlation(self, factory):
        t = factory()
        error = verify_transform_1d(t.BT, t.G, t.AT, trials=16)
        assert error < 1e-6

    @pytest.mark.parametrize("m,r", [(2, 3), (4, 3), (6, 3), (2, 5), (3, 3), (4, 5)])
    def test_cook_toom_generated_matrices(self, m, r):
        bt, g, at = cook_toom_matrices(m, r)
        assert bt.shape == (m + r - 1, m + r - 1)
        assert verify_transform_1d(bt, g, at, trials=8) < 1e-6

    def test_cook_toom_point_count_validation(self):
        with pytest.raises(ValueError):
            cook_toom_matrices(4, 3, points=default_points(3))

    def test_cook_toom_duplicate_points_rejected(self):
        from fractions import Fraction
        with pytest.raises(ValueError):
            cook_toom_matrices(2, 3, points=[Fraction(1), Fraction(1), Fraction(0)])

    @given(st.integers(2, 5))
    def test_cook_toom_arbitrary_output_sizes(self, m):
        bt, g, at = cook_toom_matrices(m, 3)
        assert verify_transform_1d(bt, g, at, trials=4) < 1e-5


class Test2DTransforms:
    def test_weight_transform_shapes(self, rng):
        t = winograd_f4()
        w = rng.normal(size=(8, 4, 3, 3))
        wino = transform_weight(w, t)
        assert wino.shape == (8, 4, 6, 6)

    def test_inverse_weight_transform_recovers_spatial(self, rng):
        """G⁺ (G f Gᵀ) (Gᵀ)⁺ == f (the Fig. 4 back-transform is exact pre-quant)."""
        t = winograd_f4()
        w = rng.normal(size=(3, 2, 3, 3))
        back = inverse_weight_transform(transform_weight(w, t), t)
        np.testing.assert_allclose(back, w, atol=1e-10)

    def test_single_tile_2d_equals_direct_conv(self, rng):
        t = winograd_f4()
        x = rng.normal(size=(6, 6))
        f = rng.normal(size=(3, 3))
        y = transform_output_tile(transform_input_tile(x, t) * transform_weight(f, t), t)
        ref = np.zeros((4, 4))
        for i in range(4):
            for j in range(4):
                ref[i, j] = np.sum(x[i:i + 3, j:j + 3] * f)
        np.testing.assert_allclose(y, ref, atol=1e-10)


class TestTiling:
    def test_tile_counts(self):
        assert tile_counts(32, 32, 4) == (8, 8)
        assert tile_counts(33, 30, 4) == (9, 8)

    @given(st.integers(5, 20), st.integers(5, 20), st.sampled_from([2, 4]))
    def test_extract_assemble_consistency(self, h, w, m):
        """Tiling covers exactly the convolution output positions."""
        rng = np.random.default_rng(h * 100 + w + m)
        x = rng.normal(size=(1, 2, h, w))
        padded, out_h, out_w = pad_for_tiling(x, m, 3, padding=1)
        tiles = extract_tiles(padded, m, 3)
        assert tiles.shape[4] == m + 2
        n_h, n_w = tile_counts(out_h, out_w, m)
        assert tiles.shape[2:4] == (n_h, n_w)
        # Output assembly: identity payload reshapes back to (out_h, out_w).
        payload = rng.normal(size=(1, 2, n_h, n_w, m, m))
        out = assemble_output_tiles(payload, out_h, out_w)
        assert out.shape == (1, 2, out_h, out_w)

    def test_scatter_is_adjoint_of_extract(self, rng):
        x = rng.normal(size=(1, 1, 10, 10))
        padded, _, _ = pad_for_tiling(x, 4, 3, 1)
        tiles = extract_tiles(padded, 4, 3)
        y = rng.normal(size=tiles.shape)
        lhs = np.sum(tiles * y)
        rhs = np.sum(padded * scatter_tiles_add(y, padded.shape, 4, 3))
        assert np.isclose(lhs, rhs)

    def test_too_small_input_raises(self):
        with pytest.raises(ValueError):
            pad_for_tiling(np.zeros((1, 1, 1, 1)), 4, 3, padding=0)
