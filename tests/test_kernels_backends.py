"""Equivalence and dispatch tests for the kernel backend subsystem.

The ``fast`` backend (batched GEMMs) must match the frozen ``reference``
backend (the seed einsum/loop code) to float precision on every primitive and
every public entry point — and bit-exactly on the integer simulation path.
"""

import os

import numpy as np
import pytest

import repro.kernels as kernels
from repro.engine.executor import bind_tap_major_weights
from repro.kernels import (available_backends, get_backend, reset_backend,
                           set_backend, use_backend)
from repro.nn import functional as F
from repro.nn.tensor import Tensor
from repro.quant import calibrate_tapwise_scales, integer_winograd_conv2d
from repro.winograd import (integer_transform_matrices, winograd_conv2d,
                            winograd_conv2d_tensor, winograd_f2, winograd_f4)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


REF = get_backend("reference")
FAST = get_backend("fast")

# What reset_backend() resolves to in this process: the environment override
# if one is set, else the built-in default.
DEFAULT_NAME = os.environ.get(kernels.ENV_VAR) or kernels.DEFAULT_BACKEND


# --------------------------------------------------------------------------- #
# Registry / dispatch
# --------------------------------------------------------------------------- #
class TestRegistry:
    def test_all_backends_registered(self):
        assert available_backends() == ["fast", "reference"]

    def test_default_resolution(self):
        reset_backend()
        assert get_backend().name == DEFAULT_NAME

    def test_set_and_reset(self):
        try:
            assert set_backend("reference").name == "reference"
            assert get_backend().name == "reference"
        finally:
            reset_backend()
        assert get_backend().name == DEFAULT_NAME

    def test_use_backend_context_manager(self):
        reset_backend()
        assert get_backend().name == DEFAULT_NAME
        with use_backend("reference"):
            assert get_backend().name == "reference"
        assert get_backend().name == DEFAULT_NAME

    def test_env_var_override(self, monkeypatch):
        monkeypatch.setenv(kernels.ENV_VAR, "reference")
        reset_backend()
        try:
            assert get_backend().name == "reference"
        finally:
            # Re-resolve under the process's real environment before the
            # monkeypatch teardown, so the registry is not left pinned.
            if DEFAULT_NAME != kernels.DEFAULT_BACKEND:
                monkeypatch.setenv(kernels.ENV_VAR, DEFAULT_NAME)
            else:
                monkeypatch.delenv(kernels.ENV_VAR)
            reset_backend()
        assert get_backend().name == DEFAULT_NAME

    def test_unknown_backend_raises(self):
        with pytest.raises(KeyError):
            get_backend("turbo")

    def test_per_call_argument_accepts_instance_and_name(self, rng):
        x = rng.normal(size=(1, 2, 8, 8))
        w = rng.normal(size=(3, 2, 3, 3))
        by_name = winograd_conv2d(x, w, winograd_f4(), backend="reference")
        by_instance = winograd_conv2d(x, w, winograd_f4(), backend=REF)
        np.testing.assert_array_equal(by_name, by_instance)


# --------------------------------------------------------------------------- #
# The call contract every registered backend implements
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("name", available_backends())
class TestCallContract:
    def test_winograd_forward_w_r_and_out(self, rng, name):
        be, t = get_backend(name), winograd_f4()
        x_padded = rng.normal(size=(1, 2, 10, 14))   # 2x3 tiles, full 8x12
        w = rng.normal(size=(3, 2, 3, 3))
        w_r = bind_tap_major_weights(be, w, t)
        np.testing.assert_array_equal(
            be.winograd_forward(x_padded, w, t, 7, 10, w_r=w_r),
            be.winograd_forward(x_padded, w, t, 7, 10))
        out = np.empty((1, 3, 8, 12))
        got = be.winograd_forward(x_padded, w, t, 8, 12, w_r=w_r, out=out)
        assert got is out
        np.testing.assert_array_equal(
            out, be.winograd_forward(x_padded, w, t, 8, 12))

    def test_winograd_autograd(self, rng, name):
        be, t = get_backend(name), winograd_f4()
        x_padded = rng.normal(size=(1, 2, 10, 14))
        w = rng.normal(size=(3, 2, 3, 3))
        out, backward = be.winograd_autograd(x_padded, w, t, 7, 10)
        np.testing.assert_allclose(
            out, REF.winograd_forward(x_padded, w, t, 7, 10), atol=1e-10)
        dx_padded, dw = backward(rng.normal(size=out.shape))
        assert dx_padded.shape == x_padded.shape and dw.shape == w.shape

    def test_conv2d_gemm_fills_out(self, rng, name):
        be = get_backend(name)
        w2d = rng.normal(size=(5, 18))
        cols = rng.normal(size=(2, 18, 35))
        out = np.empty((2, 5, 35))
        assert be.conv2d_gemm(w2d, cols, out=out) is out
        np.testing.assert_array_equal(out, be.conv2d_gemm(w2d, cols))


# --------------------------------------------------------------------------- #
# Primitive-level equivalence
# --------------------------------------------------------------------------- #
class TestPrimitives:
    def test_tile_contract_and_adjoints(self, rng):
        xw = rng.normal(size=(2, 3, 4, 5, 6, 6))
        ww = rng.normal(size=(7, 3, 6, 6))
        out_ref = REF.tile_contract(xw, ww)
        np.testing.assert_allclose(FAST.tile_contract(xw, ww), out_ref, atol=1e-12)
        grad = rng.normal(size=out_ref.shape)
        np.testing.assert_allclose(FAST.tile_contract_dx(grad, ww),
                                   REF.tile_contract_dx(grad, ww), atol=1e-12)
        np.testing.assert_allclose(FAST.tile_contract_dw(grad, xw),
                                   REF.tile_contract_dw(grad, xw), atol=1e-12)

    def test_tile_contract_integer_bit_exact(self, rng):
        xw = rng.integers(-512, 512, size=(2, 3, 4, 4, 6, 6))
        ww = rng.integers(-512, 512, size=(5, 3, 6, 6))
        out_fast = FAST.tile_contract(xw, ww)
        np.testing.assert_array_equal(out_fast, REF.tile_contract(xw, ww))
        assert out_fast.dtype == np.int64

    def test_apply_transform_pair(self, rng):
        t = winograd_f4()
        tiles = rng.normal(size=(2, 3, 4, 4, 6, 6))
        np.testing.assert_allclose(
            FAST.apply_transform_pair(tiles, t.BT, t.B),
            REF.apply_transform_pair(tiles, t.BT, t.B), atol=1e-12)

    def test_extract_tiles_view_matches_copy(self, rng):
        x = rng.normal(size=(2, 3, 14, 18))
        ref_tiles = REF.extract_tiles(x, 4, 3)
        fast_tiles = FAST.extract_tiles(x, 4, 3)
        np.testing.assert_array_equal(fast_tiles, ref_tiles)
        assert not fast_tiles.flags.writeable  # no-copy view
        assert ref_tiles.flags.c_contiguous

    @pytest.mark.parametrize("m,r", [(2, 3), (4, 3), (6, 3)])
    def test_scatter_tiles_add(self, rng, m, r):
        alpha = m + r - 1
        n_h, n_w = 3, 5
        padded_shape = (2, 3, n_h * m + r - 1, n_w * m + r - 1)
        tiles = rng.integers(-50, 50, size=(2, 3, n_h, n_w, alpha, alpha))
        np.testing.assert_array_equal(
            FAST.scatter_tiles_add(tiles, padded_shape, m, r),
            REF.scatter_tiles_add(tiles, padded_shape, m, r))
        ftiles = tiles.astype(np.float64)
        np.testing.assert_allclose(
            FAST.scatter_tiles_add(ftiles, padded_shape, m, r),
            REF.scatter_tiles_add(ftiles, padded_shape, m, r), atol=1e-12)

    def test_extract_tiles_public_copy_flag(self, rng):
        from repro.winograd.tiling import extract_tiles
        x = rng.normal(size=(1, 2, 10, 10))
        copied = extract_tiles(x, 4, 3)
        view = extract_tiles(x, 4, 3, copy=False)
        np.testing.assert_array_equal(view, copied)
        assert copied.flags.writeable and copied.flags.c_contiguous
        assert not view.flags.writeable  # zero-copy strided view

    def test_fast_im2col_1x1_does_not_alias_input(self, rng):
        x = rng.normal(size=(2, 3, 5, 5))
        cols = FAST.im2col(x, (1, 1), 1, 0)
        assert not np.shares_memory(cols, x)
        assert cols.flags.writeable
        np.testing.assert_array_equal(cols, REF.im2col(x, (1, 1), 1, 0))

    def test_im2col_gemms(self, rng):
        x = rng.normal(size=(2, 3, 9, 11))
        cols_ref = REF.im2col(x, (3, 3), 1, 1)
        np.testing.assert_array_equal(FAST.im2col(x, (3, 3), 1, 1), cols_ref)
        w2d = rng.normal(size=(7, 27))
        out_ref = REF.conv2d_gemm(w2d, cols_ref)
        np.testing.assert_allclose(FAST.conv2d_gemm(w2d, cols_ref), out_ref,
                                   atol=1e-12)
        grad2d = rng.normal(size=out_ref.shape)
        np.testing.assert_allclose(FAST.conv2d_gemm_dw(grad2d, cols_ref),
                                   REF.conv2d_gemm_dw(grad2d, cols_ref), atol=1e-11)
        np.testing.assert_allclose(FAST.conv2d_gemm_dcols(w2d, grad2d),
                                   REF.conv2d_gemm_dcols(w2d, grad2d), atol=1e-12)


# --------------------------------------------------------------------------- #
# End-to-end equivalence: float forward, autograd, integer path
# --------------------------------------------------------------------------- #
class TestEndToEnd:
    @pytest.mark.parametrize("factory", [winograd_f2, winograd_f4])
    @pytest.mark.parametrize("padding", [0, 1])
    def test_winograd_forward(self, rng, factory, padding):
        x = rng.normal(size=(2, 3, 11, 13))
        w = rng.normal(size=(4, 3, 3, 3))
        b = rng.normal(size=(4,))
        out_ref = winograd_conv2d(x, w, factory(), bias=b, padding=padding,
                                  backend="reference")
        out_fast = winograd_conv2d(x, w, factory(), bias=b, padding=padding,
                                   backend="fast")
        np.testing.assert_allclose(out_fast, out_ref, atol=1e-9)

    def test_conv2d_forward_and_backward(self, rng):
        x = rng.normal(size=(2, 3, 8, 8))
        w = rng.normal(size=(4, 3, 3, 3))
        b = rng.normal(size=(4,))
        grads = {}
        for name in ("reference", "fast"):
            xt = Tensor(x.copy(), requires_grad=True)
            wt = Tensor(w.copy(), requires_grad=True)
            bt = Tensor(b.copy(), requires_grad=True)
            out = F.conv2d(xt, wt, bt, stride=1, padding=1, backend=name)
            out.sum().backward()
            grads[name] = (out.data, xt.grad, wt.grad, bt.grad)
        for got, want in zip(grads["fast"], grads["reference"]):
            np.testing.assert_allclose(got, want, atol=1e-9)

    @pytest.mark.parametrize("factory", [winograd_f2, winograd_f4])
    def test_winograd_autograd_gradients(self, rng, factory):
        x = rng.normal(size=(2, 3, 9, 9))
        w = rng.normal(size=(4, 3, 3, 3))
        seed_grad = rng.normal(size=(2, 4, 9, 9))
        grads = {}
        for name in ("reference", "fast"):
            xt = Tensor(x.copy(), requires_grad=True)
            wt = Tensor(w.copy(), requires_grad=True)
            out = winograd_conv2d_tensor(xt, wt, factory(), padding=1, backend=name)
            out.backward(seed_grad)
            grads[name] = (out.data, xt.grad, wt.grad)
        for got, want in zip(grads["fast"], grads["reference"]):
            np.testing.assert_allclose(got, want, atol=1e-8)

    def test_fast_gradients_match_finite_differences(self, rng):
        x = rng.normal(size=(1, 2, 6, 6))
        w = rng.normal(size=(2, 2, 3, 3))
        wt = Tensor(w.copy(), requires_grad=True)
        out = winograd_conv2d_tensor(Tensor(x), wt, winograd_f4(), padding=1,
                                     backend="fast")
        loss = (out * out).sum()
        loss.backward()
        eps = 1e-6
        for idx in [(0, 0, 0, 0), (1, 1, 2, 2), (0, 1, 1, 0)]:
            w_pert = w.copy()
            w_pert[idx] += eps
            up = winograd_conv2d(x, w_pert, winograd_f4(), padding=1, backend="fast")
            w_pert[idx] -= 2 * eps
            down = winograd_conv2d(x, w_pert, winograd_f4(), padding=1, backend="fast")
            fd = ((up * up).sum() - (down * down).sum()) / (2 * eps)
            assert wt.grad[idx] == pytest.approx(fd, rel=1e-4)

    @pytest.mark.parametrize("factory", [winograd_f2, winograd_f4])
    def test_integer_path_bit_exact_across_backends(self, rng, factory):
        transform = factory()
        x = rng.normal(size=(2, 3, 12, 12))
        w = rng.normal(size=(4, 3, 3, 3))
        scales = calibrate_tapwise_scales(x, w, transform, power_of_two=True)
        out_ref, stats_ref = integer_winograd_conv2d(
            x, w, transform, scales, return_stats=True, backend="reference")
        out_fast, stats_fast = integer_winograd_conv2d(
            x, w, transform, scales, return_stats=True, backend="fast")
        # Integer intermediates are bit-exact; only the float back-transform
        # can differ in the last ulp between GEMM orderings.
        assert stats_fast == stats_ref
        np.testing.assert_allclose(out_fast, out_ref, atol=1e-10)

    def test_integer_path_rejects_fractional_bt(self, rng):
        from repro.winograd import winograd_f6
        x = rng.normal(size=(1, 1, 12, 12))
        w = rng.normal(size=(1, 1, 3, 3))
        scales = calibrate_tapwise_scales(x, w, winograd_f6())
        with pytest.raises(ValueError):
            integer_winograd_conv2d(x, w, winograd_f6(), scales)


# --------------------------------------------------------------------------- #
# Cached transforms
# --------------------------------------------------------------------------- #
class TestTransformCaching:
    def test_factories_return_singletons(self):
        assert winograd_f4() is winograd_f4()
        assert winograd_f2() is winograd_f2()

    def test_matrices_are_read_only(self):
        t = winograd_f4()
        with pytest.raises(ValueError):
            t.BT[0, 0] = 99.0

    def test_integer_matrices_cached_and_exact(self):
        ints = integer_transform_matrices(winograd_f4())
        assert ints is integer_transform_matrices(winograd_f4())
        np.testing.assert_array_equal(ints.BT, winograd_f4().BT)
        np.testing.assert_array_equal(ints.AT, winograd_f4().AT)
        assert ints.BT.dtype == np.int64
        assert ints.G is None  # G of F4 is fractional

    def test_env_switch_affects_module_level_dispatch(self, monkeypatch, rng):
        """scatter_tiles_add (public tiling API) follows the active backend."""
        from repro.winograd.tiling import scatter_tiles_add
        tiles = rng.integers(-9, 9, size=(1, 1, 2, 2, 6, 6))
        with use_backend("reference"):
            ref = scatter_tiles_add(tiles, (1, 1, 10, 10), 4, 3)
        with use_backend("fast"):
            fast = scatter_tiles_add(tiles, (1, 1, 10, 10), 4, 3)
        np.testing.assert_array_equal(ref, fast)
