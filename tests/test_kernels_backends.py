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
# The members a workload calls: the weight pair transform, the im2col
# lowering and its GEMMs, and the fused Winograd forward and training step.
CONTRACT = ["apply_transform_pair", "im2col", "col2im", "conv2d_gemm",
            "conv2d_gemm_dw", "conv2d_gemm_dcols", "winograd_forward",
            "winograd_autograd"]


@pytest.mark.parametrize("name", available_backends())
class TestCallContract:
    def test_members_are_the_ones_a_workload_calls(self, name):
        be = get_backend(name)
        assert sorted(be.primitives()) == sorted(CONTRACT)
        wrapped = []
        be.instrumented(lambda member, fn: wrapped.append(member) or fn)
        assert sorted(wrapped) == sorted(CONTRACT)

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
    def test_apply_transform_pair(self, rng):
        t = winograd_f4()
        tiles = rng.normal(size=(2, 3, 4, 4, 6, 6))
        np.testing.assert_allclose(
            FAST.apply_transform_pair(tiles, t.BT, t.B),
            REF.apply_transform_pair(tiles, t.BT, t.B), atol=1e-12)

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
        # Power-of-two scales keep every value up to the output exact, so the
        # float64 carriers of fast reproduce the int64 reference bit for bit.
        assert stats_fast == stats_ref
        np.testing.assert_array_equal(out_fast, out_ref)

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

    def test_env_switch_affects_module_level_dispatch(self, rng):
        """nn.functional.col2im (a module-level entry point without a
        backend= argument) dispatches to the active backend."""
        calls = []

        def spy(member, fn):
            def call(*args, **kwargs):
                calls.append(member)
                return fn(*args, **kwargs)
            return call

        cols = rng.integers(-9, 9, size=(1, 18, 16))
        with use_backend(REF.instrumented(spy)):
            ref = F.col2im(cols, (1, 2, 4, 4), (3, 3), 1, 1)
        assert calls == ["col2im"]
        with use_backend("fast"):
            fast = F.col2im(cols, (1, 2, 4, 4), (3, 3), 1, 1)
        assert calls == ["col2im"]
        np.testing.assert_array_equal(ref, fast)
