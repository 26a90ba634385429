"""Tests kept under this module's name after the ``tuned`` backend tier was
deleted, so that their ids stay stable.

* ``fast``-vs-``reference`` equivalence on the cases that tier was checked
  on: float forward/autograd, the bit-exact integer primitives, and a
  calibrated quantization replay. ``fast`` is the default backend that every
  workload runs on;
* the ``run_bench.py --check`` regression-gate comparison logic.
"""

from __future__ import annotations

import importlib.util
import os

import numpy as np
import pytest

from repro.kernels import get_backend
from repro.nn.tensor import Tensor
from repro.quant import calibrate_tapwise_scales, integer_winograd_conv2d
from repro.winograd import (integer_transform_matrices, winograd_conv2d,
                            winograd_conv2d_tensor, winograd_f2, winograd_f4)

REF = get_backend("reference")
FAST = get_backend("fast")


@pytest.fixture
def rng():
    return np.random.default_rng(7)


# --------------------------------------------------------------------------- #
# Equivalence: fast must match reference in every numerical regime
# --------------------------------------------------------------------------- #
class TestEquivalence:
    @pytest.mark.parametrize("factory", [winograd_f2, winograd_f4])
    def test_float_forward_matches_reference(self, rng, factory):
        x = rng.normal(size=(2, 3, 12, 12))
        w = rng.normal(size=(4, 3, 3, 3))
        b = rng.normal(size=(4,))
        out_ref = winograd_conv2d(x, w, factory(), bias=b, padding=1,
                                  backend="reference")
        out_fast = winograd_conv2d(x, w, factory(), bias=b, padding=1,
                                   backend="fast")
        np.testing.assert_allclose(out_fast, out_ref, atol=1e-9)

    def test_autograd_matches_reference(self, rng):
        x = rng.normal(size=(2, 3, 12, 12))
        w = rng.normal(size=(4, 3, 3, 3))
        seed_grad = rng.normal(size=(2, 4, 12, 12))
        grads = {}
        for name in ("reference", "fast"):
            xt = Tensor(x.copy(), requires_grad=True)
            wt = Tensor(w.copy(), requires_grad=True)
            out = winograd_conv2d_tensor(xt, wt, winograd_f4(), padding=1,
                                         backend=name)
            out.backward(seed_grad)
            grads[name] = (out.data, xt.grad, wt.grad)
        for got, want in zip(grads["fast"], grads["reference"]):
            np.testing.assert_allclose(got, want, atol=1e-8)

    def test_integer_primitives_bit_exact(self, rng):
        bt = integer_transform_matrices(winograd_f4()).BT
        tiles = rng.integers(-512, 512, size=(2, 3, 4, 4, 6, 6))
        out = FAST.apply_transform_pair(tiles, bt, bt.T)
        np.testing.assert_array_equal(out, REF.apply_transform_pair(tiles, bt, bt.T))
        assert out.dtype == np.int64

    @pytest.mark.parametrize("factory", [winograd_f2, winograd_f4])
    def test_quantized_replay_bit_exact(self, rng, factory):
        """Calibrated integer Winograd replays identically through fast."""
        transform = factory()
        x = rng.normal(size=(2, 3, 12, 12))
        w = rng.normal(size=(4, 3, 3, 3))
        scales = calibrate_tapwise_scales(x, w, transform, power_of_two=True)
        out_ref, stats_ref = integer_winograd_conv2d(
            x, w, transform, scales, return_stats=True, backend="reference")
        out_fast, stats_fast = integer_winograd_conv2d(
            x, w, transform, scales, return_stats=True, backend="fast")
        assert stats_fast == stats_ref        # integer intermediates bit-exact
        np.testing.assert_allclose(out_fast, out_ref, atol=1e-10)


# --------------------------------------------------------------------------- #
# run_bench.py --check comparison logic
# --------------------------------------------------------------------------- #
def _load_run_bench():
    path = os.path.join(os.path.dirname(__file__), "..", "benchmarks",
                        "run_bench.py")
    spec = importlib.util.spec_from_file_location("run_bench_under_test", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


class TestBenchCheck:
    def test_check_regressions_bounds(self):
        rb = _load_run_bench()
        baseline = {
            "winograd": {"speedup_fast_vs_reference": 2.0, "fast_s": 0.5},
            "plan": {"overhead_cold_vs_fast": 1.0},
            "flaky": {"skipped": "no shm"},
            "meta-ish": "not a dict",
        }
        fresh_ok = {
            "winograd": {"speedup_fast_vs_reference": 1.75, "fast_s": 9.9},
            "plan": {"overhead_cold_vs_fast": 1.10},
        }
        assert rb.check_regressions(baseline, fresh_ok, "k") == []

        fresh_bad = {
            "winograd": {"speedup_fast_vs_reference": 1.5},   # >15% below 2.0
            "plan": {"overhead_cold_vs_fast": 1.3},       # >15% above 1.0
        }
        problems = rb.check_regressions(baseline, fresh_bad, "k")
        assert len(problems) == 2
        assert any("below committed" in p for p in problems)
        assert any("above committed" in p for p in problems)

    def test_check_regressions_missing_case_fails(self):
        rb = _load_run_bench()
        baseline = {"winograd": {"speedup_f4": 3.0}}
        problems = rb.check_regressions(baseline, {}, "k")
        assert problems and "missing" in problems[0]
        problems = rb.check_regressions(
            baseline, {"winograd": {"fast_s": 1.0}}, "k")
        assert problems and "speedup_f4" in problems[0]

    def test_check_skips_skipped_and_nonnumeric(self):
        rb = _load_run_bench()
        baseline = {"shm": {"skipped": "unavailable"},
                    "meta": {"note": "text", "speedup_x": 2.0}}
        fresh = {"meta": {"speedup_x": 2.0}}
        assert rb.check_regressions(baseline, fresh, "k") == []
