"""Tests for the execution-plan layer (:mod:`repro.engine`).

Covers plan-cache semantics (interning, hit/miss counters, plans keyed on
the backend they hold, so a backend switch needs no eviction), numerical equivalence of the planned/fused executor
against the eager composed paths (forward and backward, float tolerance;
bit-exact for integer accumulation), the bound :class:`CompiledConv`, the
:class:`BatchRunner` sharding, and the fail-fast backend-name diagnostics.
"""

import numpy as np
import pytest
from composed_winograd import composed_winograd

import repro.engine as engine
from repro.engine import (BatchRunner, CompiledConv,
                          clear_plan_cache, execute, execute_tensor,
                          lower_conv2d, lower_winograd, plan_cache_stats,
                          reset_plan_stats)
from repro.kernels import (ENV_VAR, UnknownBackendError, get_backend,
                           reset_backend, set_backend, use_backend)
from repro.nn import functional as F
from repro.nn.module import Sequential
from repro.nn.tensor import Tensor
from repro.serve.pool import chunk_bounds
from repro.winograd import (winograd_conv2d, winograd_conv2d_tensor,
                            winograd_f2, winograd_f4, winograd_f6)


@pytest.fixture
def rng():
    return np.random.default_rng(77)


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_plan_cache()
    reset_plan_stats()
    yield
    clear_plan_cache()


# --------------------------------------------------------------------------- #
# Plan cache semantics
# --------------------------------------------------------------------------- #
class TestPlanCache:
    def test_same_shape_interns_same_plan(self):
        p1 = lower_winograd((2, 3, 12, 12), (4, 3, 3, 3), winograd_f4(), 1)
        p2 = lower_winograd((2, 3, 12, 12), (4, 3, 3, 3), winograd_f4(), 1)
        assert p1 is p2
        stats = plan_cache_stats()
        assert stats.misses == 1 and stats.hits == 1 and stats.size == 1

    def test_distinct_keys_miss(self):
        lower_winograd((2, 3, 12, 12), (4, 3, 3, 3), winograd_f4(), 1)
        lower_winograd((2, 3, 12, 12), (4, 3, 3, 3), winograd_f2(), 1)
        lower_winograd((1, 3, 12, 12), (4, 3, 3, 3), winograd_f4(), 1)
        lower_conv2d((2, 3, 12, 12), (4, 3, 3, 3), 1, 1)
        stats = plan_cache_stats()
        assert stats.misses == 4 and stats.size == 4

    def test_transform_name_and_instance_share_a_plan(self):
        by_name = lower_winograd((1, 2, 8, 8), (3, 2, 3, 3), "F4", 1)
        by_instance = lower_winograd((1, 2, 8, 8), (3, 2, 3, 3), winograd_f4(), 1)
        assert by_name is by_instance

    def test_tapwise_layers_of_one_shape_share_a_plan(self):
        """A layer's quantization goes to the kernel, not into its plan."""
        from repro.quant import QuantWinogradConv2d
        x = Tensor(np.ones((1, 2, 8, 8)))
        QuantWinogradConv2d(2, 3, wino_bits=8)(x)
        QuantWinogradConv2d(2, 3, wino_bits=10, tapwise=False)(x)
        stats = plan_cache_stats()
        assert stats.misses == 1 and stats.hits == 1 and stats.size == 1

    def test_geometry_fields(self):
        plan = lower_winograd((2, 3, 11, 13), (4, 3, 3, 3), winograd_f4(), 1)
        assert (plan.out_h, plan.out_w) == (11, 13)
        assert (plan.n_h, plan.n_w) == (3, 4)
        # Padded to 3*4+2 rows and 4*4+2 columns.
        assert plan.pad_width == ((0, 0), (0, 0), (1, 2), (1, 4))
        assert plan.out_shape == (2, 4, 11, 13)
        conv_plan = lower_conv2d((2, 3, 11, 13), (4, 3, 3, 3), 2, 1)
        assert (conv_plan.out_h, conv_plan.out_w) == (6, 7)
        assert conv_plan.out_shape == (2, 4, 6, 7)

    def test_plan_lowered_after_switch_carries_the_new_backend(self):
        shape = ((2, 3, 12, 12), (4, 3, 3, 3), winograd_f4(), 1)
        with use_backend("fast"):
            before = lower_winograd(*shape)
        try:
            set_backend("reference")
            after = lower_winograd(*shape)
        finally:
            reset_backend()
        assert after is not before
        assert after.backend is get_backend("reference")
        assert before.backend is get_backend("fast")

    def test_backend_switches_evict_nothing(self):
        shape = ((2, 3, 12, 12), (4, 3, 3, 3), winograd_f4(), 1)
        with use_backend("fast"):
            fast = lower_winograd(*shape)
        with use_backend("reference"):
            ref = lower_winograd(*shape)
        set_backend("reference")
        reset_backend()
        stats = plan_cache_stats()
        assert stats.size == 2 and stats.evictions == 0
        with use_backend("fast"):
            assert lower_winograd(*shape) is fast
        with use_backend("reference"):
            assert lower_winograd(*shape) is ref

    def test_plans_capture_the_requested_backend(self):
        ref = lower_winograd((1, 2, 8, 8), (3, 2, 3, 3), "F4", 1,
                             backend="reference")
        fast = lower_winograd((1, 2, 8, 8), (3, 2, 3, 3), "F4", 1,
                              backend="fast")
        assert ref is not fast
        assert ref.backend.name == "reference" and fast.backend.name == "fast"

    def test_plans_key_on_backend_identity_not_name(self):
        wrapped = get_backend("fast").instrumented(
            lambda name, fn: lambda *a, **k: fn(*a, **k))
        bare = lower_winograd((1, 2, 8, 8), (3, 2, 3, 3), "F4", 1,
                              backend="fast")
        plan = lower_winograd((1, 2, 8, 8), (3, 2, 3, 3), "F4", 1,
                              backend=wrapped)
        assert plan is not bare
        assert plan.backend is wrapped and bare.backend is get_backend("fast")
        assert lower_winograd((1, 2, 8, 8), (3, 2, 3, 3), "F4", 1,
                              backend=wrapped) is plan


# --------------------------------------------------------------------------- #
# Planned execution equivalence
# --------------------------------------------------------------------------- #
def _fused_and_composed(x, w, b, seed_grad, transform, backend):
    """(out, dx, dw, db) from the fused node on ``backend`` and from the
    composed graph on ``reference``'s primitives (the oracle)."""
    results = []
    for fused in (True, False):
        xt = Tensor(x.copy(), requires_grad=True)
        wt = Tensor(w.copy(), requires_grad=True)
        bt = Tensor(b.copy(), requires_grad=True)
        if fused:
            out = winograd_conv2d_tensor(xt, wt, transform, bias=bt, padding=1,
                                         backend=backend)
        else:
            out = composed_winograd(xt, wt, transform, bias=bt, padding=1)
        out.backward(seed_grad)
        results.append((out.data, xt.grad, wt.grad, bt.grad))
    return results


class TestPlannedEquivalence:
    @pytest.mark.parametrize("backend", ["reference", "fast"])
    @pytest.mark.parametrize("factory", [winograd_f2, winograd_f4])
    def test_winograd_forward_matches_eager(self, rng, backend, factory):
        x = rng.normal(size=(2, 3, 11, 13))
        w = rng.normal(size=(4, 3, 3, 3))
        b = rng.normal(size=(4,))
        plan = lower_winograd(x.shape, w.shape, factory(), 1, backend=backend)
        out = execute(plan, x, w, b)
        ref = winograd_conv2d(x, w, factory(), bias=b, padding=1,
                              backend="reference")
        np.testing.assert_allclose(out, ref, atol=1e-9)

    @pytest.mark.parametrize("stride,padding", [(1, 1), (2, 1), (1, 0)])
    def test_im2col_forward_matches_eager(self, rng, stride, padding):
        x = rng.normal(size=(2, 3, 9, 9))
        w = rng.normal(size=(5, 3, 3, 3))
        plan = lower_conv2d(x.shape, w.shape, stride, padding)
        out = execute(plan, x, w)
        ref = F.conv2d_numpy(x, w, None, stride, padding, backend="reference")
        np.testing.assert_allclose(out, ref, atol=1e-11)

    def test_integer_im2col_bit_exact(self, rng):
        x = rng.integers(-128, 128, size=(2, 3, 8, 8))
        w = rng.integers(-128, 128, size=(4, 3, 3, 3))
        plan_fast = lower_conv2d(x.shape, w.shape, 1, 1, backend="fast")
        plan_ref = lower_conv2d(x.shape, w.shape, 1, 1, backend="reference")
        out_fast = execute(plan_fast, x, w)
        out_ref = execute(plan_ref, x, w)
        np.testing.assert_array_equal(out_fast, out_ref)
        assert out_fast.dtype == np.int64

    @pytest.mark.parametrize("backend", ["reference", "fast"])
    @pytest.mark.parametrize("factory", [winograd_f2, winograd_f4])
    def test_fused_autograd_matches_composed(self, rng, backend, factory):
        """The single-node fused path == the composed five-node graph on
        the reference primitives."""
        x = rng.normal(size=(2, 3, 9, 9))
        w = rng.normal(size=(4, 3, 3, 3))
        b = rng.normal(size=(4,))
        seed_grad = rng.normal(size=(2, 4, 9, 9))
        fused, composed = _fused_and_composed(x, w, b, seed_grad, factory(),
                                              backend)
        for got, want in zip(fused, composed):
            if backend == "reference":      # the oracle: bit-identical
                np.testing.assert_array_equal(got, want)
            else:
                np.testing.assert_allclose(got, want, atol=1e-9)

    @pytest.mark.parametrize("factory",
                             [winograd_f2, winograd_f4, winograd_f6])
    @pytest.mark.parametrize("shape", [(1, 1, 6, 6), (2, 3, 9, 9),
                                       (2, 4, 11, 13), (1, 2, 17, 8)])
    def test_reference_fused_autograd_is_the_composed_graph(self, rng,
                                                            factory, shape):
        n, cin, h, w = shape
        x = rng.normal(size=shape)
        wt = rng.normal(size=(3, cin, 3, 3))
        b = rng.normal(size=(3,))
        seed_grad = rng.normal(size=(n, 3, h, w))
        fused, composed = _fused_and_composed(x, wt, b, seed_grad, factory(),
                                              "reference")
        for got, want in zip(fused, composed):
            np.testing.assert_array_equal(got, want)

    def test_fused_conv2d_matches_eager_backward(self, rng):
        x = rng.normal(size=(2, 3, 8, 8))
        w = rng.normal(size=(4, 3, 3, 3))
        b = rng.normal(size=(4,))
        grads = {}
        for backend in ("fast", "reference"):
            xt = Tensor(x.copy(), requires_grad=True)
            wt = Tensor(w.copy(), requires_grad=True)
            bt = Tensor(b.copy(), requires_grad=True)
            out = F.conv2d(xt, wt, bt, stride=2, padding=1, backend=backend)
            out.sum().backward()
            grads[backend] = (out.data, xt.grad, wt.grad, bt.grad)
        for got, want in zip(grads["fast"], grads["reference"]):
            np.testing.assert_allclose(got, want, atol=1e-11)

    def test_no_grad_skips_graph(self, rng):
        x = rng.normal(size=(1, 2, 8, 8))
        w = rng.normal(size=(2, 2, 3, 3))
        plan = lower_winograd(x.shape, w.shape, winograd_f4(), 1)
        out = execute_tensor(plan, Tensor(x), Tensor(w))
        assert not out.requires_grad

    def test_repeated_layer_calls_hit_the_cache(self, rng):
        x = rng.normal(size=(2, 3, 8, 8))
        w = rng.normal(size=(4, 3, 3, 3))
        for _ in range(3):
            winograd_conv2d(x, w, winograd_f4(), padding=1)
        stats = plan_cache_stats()
        assert stats.misses == 1 and stats.hits == 2


# --------------------------------------------------------------------------- #
# Bound layers, warm-up
# --------------------------------------------------------------------------- #
class TestCompiledAndWarm:
    def test_compiled_conv_winograd(self, rng):
        x = rng.normal(size=(2, 3, 12, 12))
        w = rng.normal(size=(4, 3, 3, 3))
        b = rng.normal(size=(4,))
        compiled = CompiledConv(w, b, padding=1, transform="F4")
        ref = winograd_conv2d(x, w, winograd_f4(), bias=b, padding=1)
        np.testing.assert_allclose(compiled(x), ref, atol=1e-10)
        # A second same-shape call is a pure cache hit.
        hits_before = plan_cache_stats().hits
        compiled(x)
        assert plan_cache_stats().hits > hits_before

    def test_compiled_conv_im2col(self, rng):
        x = rng.normal(size=(2, 3, 9, 9))
        w = rng.normal(size=(5, 3, 3, 3))
        compiled = CompiledConv(w, stride=2, padding=1)
        ref = F.conv2d_numpy(x, w, None, 2, 1)
        np.testing.assert_allclose(compiled(x), ref, atol=1e-11)


# --------------------------------------------------------------------------- #
# BatchRunner
# --------------------------------------------------------------------------- #
class TestBatchRunner:
    def test_inline_matches_eager(self, rng, conv_job):
        x = rng.normal(size=(6, 3, 10, 10))
        w = rng.normal(size=(4, 3, 3, 3))
        b = rng.normal(size=(4,))
        runner = BatchRunner(conv_job(w, b))
        ref = winograd_conv2d(x, w, winograd_f4(), bias=b, padding=1)
        np.testing.assert_allclose(runner.infer(x), ref, atol=1e-10)

    def test_inline_im2col_and_map(self, rng, conv_job):
        xs = [rng.normal(size=(2, 3, 8, 8)) for _ in range(3)]
        w = rng.normal(size=(4, 3, 3, 3))
        runner = BatchRunner(conv_job(w, stride=2, transform=None))
        outs = runner.map(xs)
        for x, out in zip(xs, outs):
            np.testing.assert_allclose(out, F.conv2d_numpy(x, w, None, 2, 1),
                                       atol=1e-11)

    def test_sharded_matches_inline(self, rng, conv_job):
        x = rng.normal(size=(8, 3, 10, 10))
        w = rng.normal(size=(4, 3, 3, 3))
        job = conv_job(w, backend="fast")
        inline = BatchRunner(job).infer(x)
        with BatchRunner(job, num_workers=2) as runner:
            sharded = runner.infer(x)
        np.testing.assert_allclose(sharded, inline, atol=1e-12)

    def test_empty_batch_round_trips(self, rng, conv_job):
        """Regression: an empty batch must not spawn worker round trips."""
        job = conv_job(rng.normal(size=(4, 3, 3, 3)))
        empty = np.empty((0, 3, 10, 10))
        assert BatchRunner(job).infer(empty).shape == (0, 4, 10, 10)
        assert BatchRunner(job).map([]) == []
        with BatchRunner(job, num_workers=2) as runner:
            assert runner.infer(empty).shape == (0, 4, 10, 10)
            assert runner.map([]) == []

    def test_ragged_final_chunk_round_trips(self, rng, conv_job):
        """Regression: a final chunk smaller than the shard size is fine."""
        x = rng.normal(size=(7, 3, 10, 10))      # 2 workers -> 4 + 3 rows
        job = conv_job(rng.normal(size=(4, 3, 3, 3)))
        inline = BatchRunner(job).infer(x)
        with BatchRunner(job, num_workers=2) as runner:
            sharded = runner.infer(x)
        np.testing.assert_allclose(sharded, inline, atol=1e-12)

    def test_out_shape_runs_one_forward_per_sample_shape(self, rng, conv_job,
                                                         monkeypatch):
        job = conv_job(rng.normal(size=(4, 3, 3, 3)))
        calls = []
        forward = Sequential.forward

        def counted(self, x):
            calls.append(x.shape)
            return forward(self, x)

        monkeypatch.setattr(Sequential, "forward", counted)
        assert job.out_shape((5, 3, 10, 10)) == (5, 4, 10, 10)
        assert job.out_shape((2, 3, 10, 10)) == (2, 4, 10, 10)
        assert job.out_shape((2, 3, 12, 12)) == (2, 4, 12, 12)
        assert calls == [(1, 3, 10, 10), (1, 3, 12, 12)]
        assert job.out_dtype(np.float32) == np.float64

    def test_pool_creation_failure_runs_inline(self, rng, monkeypatch, conv_job):
        """A pool that cannot be created leaves the runner working inline."""
        from repro.serve.pool import ShmWorkerPool

        def forbidden(self, *args, **kwargs):
            raise PermissionError("process spawning forbidden")

        monkeypatch.setattr(ShmWorkerPool, "__init__", forbidden)
        xs = [rng.normal(size=(3, 3, 10, 10)) for _ in range(2)]
        job = conv_job(rng.normal(size=(4, 3, 3, 3)))
        inline = BatchRunner(job)
        with BatchRunner(job, num_workers=2) as runner:
            assert runner.transport == "inline" and runner.degraded
            assert runner.pool_stats() == {}
            # Born inline, the runner still cuts the pool's chunks.
            chunked = np.concatenate([inline.infer(xs[0][lo:hi])
                                      for lo, hi in chunk_bounds(3, 2)])
            np.testing.assert_array_equal(runner.infer(xs[0]), chunked)
            for got, want in zip(runner.map(xs), inline.map(xs)):
                np.testing.assert_array_equal(got, want)

    def test_unknown_pool_option_raises(self, rng, conv_job):
        job = conv_job(rng.normal(size=(4, 3, 3, 3)))
        with pytest.raises(TypeError):
            BatchRunner(job, num_workers=2, heartbeat_intervl=None)

    def test_inline_honours_deadline(self, rng, conv_job):
        from repro.serve import RequestTimeout
        from repro.serve.errors import deadline_clock
        runner = BatchRunner(conv_job(rng.normal(size=(4, 3, 3, 3))))
        x = rng.normal(size=(2, 3, 10, 10))
        with pytest.raises(RequestTimeout):
            runner.infer(x, deadline=deadline_clock() - 1.0)
        np.testing.assert_array_equal(
            runner.infer(x, deadline=deadline_clock() + 30.0), runner.infer(x))


# --------------------------------------------------------------------------- #
# Fail-fast backend diagnostics
# --------------------------------------------------------------------------- #
class TestFailFast:
    def test_unknown_backend_argument_lists_registered(self):
        with pytest.raises(UnknownBackendError) as excinfo:
            get_backend("turbo")
        message = str(excinfo.value)
        assert "turbo" in message
        assert "fast" in message and "reference" in message
        assert "backend= argument" in message

    def test_unknown_backend_is_a_key_error(self):
        with pytest.raises(KeyError):
            set_backend("warp-drive")

    def test_env_var_source_is_named(self, monkeypatch):
        self._assert_env_var_named(monkeypatch, "nonexistent")

    # tuned and compiled were backends once: a deployment that still
    # selects them must fail fast with the variable named.
    @pytest.mark.parametrize("name", "tuned compiled".split())
    def test_retired_backend_env_var_is_named(self, monkeypatch, name):
        self._assert_env_var_named(monkeypatch, name)

    @staticmethod
    def _assert_env_var_named(monkeypatch, name):
        monkeypatch.setenv(ENV_VAR, name)
        reset_backend()
        try:
            with pytest.raises(UnknownBackendError) as excinfo:
                get_backend()
            assert ENV_VAR in str(excinfo.value)
            assert repr(name) in str(excinfo.value)
        finally:
            monkeypatch.delenv(ENV_VAR)
            reset_backend()

    def test_entry_points_fail_fast(self, rng):
        x = rng.normal(size=(1, 2, 8, 8))
        w = rng.normal(size=(3, 2, 3, 3))
        with pytest.raises(UnknownBackendError):
            F.conv2d(Tensor(x), Tensor(w), backend="turbo")
        with pytest.raises(UnknownBackendError):
            winograd_conv2d(x, w, winograd_f4(), backend="turbo")
        with pytest.raises(UnknownBackendError):
            engine.lower_winograd(x.shape, w.shape, "F4", 1, backend="turbo")
