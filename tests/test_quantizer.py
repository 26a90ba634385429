"""Tests for observers, quantizers, and power-of-two scale learning."""

import composed_winograd as composed
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.nn.module import Parameter
from repro.nn.tensor import Tensor
from repro.quant import (Granularity, MinMaxObserver, PercentileObserver, Quantizer,
                         RunningMaxObserver, compute_scale, dequantize,
                         fake_quantize, learned_pow2_fake_quantize,
                         pow2_gradient_scale, quant_range, quantize_int,
                         reduction_axes, round_scale_to_power_of_two, scale_shape,
                         scale_to_shift, shift_to_scale)


class TestGranularity:
    def test_parse(self):
        assert Granularity.parse("per_tap") is Granularity.PER_TAP
        assert Granularity.parse(Granularity.PER_CHANNEL) is Granularity.PER_CHANNEL
        with pytest.raises(ValueError):
            Granularity.parse("per_banana")

    def test_reduction_axes(self):
        assert reduction_axes("per_tensor", 4) == (0, 1, 2, 3)
        assert reduction_axes("per_channel", 4, channel_axis=0) == (1, 2, 3)
        assert reduction_axes("per_tap", 6) == (0, 1, 2, 3)
        assert reduction_axes("per_channel_and_tap", 4, channel_axis=0) == (1,)

    def test_scale_shape(self):
        assert scale_shape("per_tap", (2, 3, 4, 4, 6, 6)) == (1, 1, 1, 1, 6, 6)
        assert scale_shape("per_channel", (8, 4, 3, 3)) == (8, 1, 1, 1)
        assert scale_shape("per_tensor", (5, 5)) == (1, 1)

    def test_per_tap_requires_two_dims(self):
        with pytest.raises(ValueError):
            reduction_axes("per_tap", 1)


class TestObservers:
    def test_running_max_converges_to_constant_input(self, rng):
        observer = RunningMaxObserver("per_tensor", momentum=0.5)
        data = rng.normal(size=(10, 10))
        for _ in range(20):
            observer.update(data)
        assert np.isclose(observer.max_value(), np.abs(data).max(), rtol=1e-3)

    def test_minmax_observer_monotone(self, rng):
        observer = MinMaxObserver("per_tensor")
        observer.update(np.array([1.0]))
        observer.update(np.array([5.0]))
        observer.update(np.array([2.0]))
        assert observer.max_value() == 5.0

    def test_percentile_observer_ignores_outliers(self, rng):
        data = np.concatenate([rng.normal(size=10_000), [1000.0]])
        observer = PercentileObserver("per_tensor", percentile=99.0, momentum=1.0)
        observer.update(data)
        assert observer.max_value() < 10.0

    def test_per_tap_observer_shape(self, rng):
        observer = RunningMaxObserver("per_tap")
        stat = observer.update(rng.normal(size=(2, 3, 4, 4, 6, 6)))
        assert stat.shape == (1, 1, 1, 1, 6, 6)

    def test_observer_before_data_raises(self):
        with pytest.raises(RuntimeError):
            RunningMaxObserver().max_value()


class TestQuantizeDequantize:
    def test_quant_range(self):
        assert quant_range(8) == (-128, 127)
        assert quant_range(10) == (-512, 511)
        assert quant_range(8, signed=False) == (0, 255)
        with pytest.raises(ValueError):
            quant_range(1)

    @given(st.integers(4, 10))
    def test_roundtrip_error_bounded_by_half_step(self, bits):
        rng = np.random.default_rng(bits)
        x = rng.uniform(-1, 1, size=256)
        scale = compute_scale(np.abs(x).max(), bits)
        q = quantize_int(x, scale, bits)
        back = dequantize(q, scale)
        assert np.max(np.abs(back - x)) <= scale / 2 + 1e-12

    def test_quantize_clamps(self):
        q = quantize_int(np.array([10.0, -10.0]), np.array(0.01), 8)
        np.testing.assert_array_equal(q, [127, -128])

    def test_fake_quantize_ste_clip(self):
        x = Tensor(np.array([0.5, 100.0, -100.0]), requires_grad=True)
        out = fake_quantize(x, np.array(0.1), 8, ste="clip")
        out.sum().backward()
        np.testing.assert_allclose(x.grad, [1.0, 0.0, 0.0])

    def test_fake_quantize_ste_pass(self):
        x = Tensor(np.array([0.5, 100.0]), requires_grad=True)
        fake_quantize(x, np.array(0.1), 8, ste="pass").sum().backward()
        np.testing.assert_allclose(x.grad, [1.0, 1.0])

    def test_fake_quantize_is_idempotent(self, rng):
        x = rng.normal(size=100)
        scale = compute_scale(np.abs(x).max(), 8)
        once = fake_quantize(Tensor(x), scale, 8).data
        twice = fake_quantize(Tensor(once), scale, 8).data
        np.testing.assert_allclose(once, twice, atol=1e-12)


class TestPowerOfTwo:
    def test_round_to_power_of_two_is_upper_bound(self, rng):
        scales = np.abs(rng.normal(size=50)) + 1e-3
        rounded = round_scale_to_power_of_two(scales)
        assert np.all(rounded >= scales - 1e-12)
        assert np.all(rounded < 2 * scales + 1e-12)
        shifts = scale_to_shift(rounded)
        np.testing.assert_allclose(shift_to_scale(shifts), rounded)

    def test_scale_to_shift_rejects_non_pow2(self):
        with pytest.raises(ValueError):
            scale_to_shift(np.array([3.0]))

    def test_learned_pow2_forward_uses_ceil(self):
        log2_t = Parameter(np.array([0.3]))  # 2^ceil(0.3) = 2
        assert pow2_gradient_scale(log2_t.data)[0] == 2.0
        x = Tensor(np.array([3.0]), requires_grad=True)
        out = learned_pow2_fake_quantize(x, log2_t, 8)
        # scale 2 -> round(3/2)=2 -> 4.0
        np.testing.assert_allclose(out.data, [4.0])

    def test_learned_pow2_gradient_matches_paper_eq3(self):
        """Inside the range, d q / d log2(t) = s ln2 (round(x/s) - x/s)."""
        log2_t = Parameter(np.array([1.0]))  # s = 2
        x = Tensor(np.array([3.0]), requires_grad=True)
        out = learned_pow2_fake_quantize(x, log2_t, 8)
        out.sum().backward()
        expected = 2.0 * np.log(2.0) * (np.round(1.5) - 1.5)
        np.testing.assert_allclose(log2_t.grad, [expected], atol=1e-12)
        np.testing.assert_allclose(x.grad, [1.0])

    def test_learned_pow2_gradient_saturates_outside_range(self):
        log2_t = Parameter(np.array([0.0]))  # s = 1
        x = Tensor(np.array([1000.0]), requires_grad=True)
        learned_pow2_fake_quantize(x, log2_t, 8).sum().backward()
        expected = 1.0 * np.log(2.0) * 127
        np.testing.assert_allclose(log2_t.grad, [expected])
        np.testing.assert_allclose(x.grad, [0.0])

    def test_learned_pow2_gradient_reduces_to_param_shape(self, rng):
        log2_t = Parameter(np.zeros((1, 1, 6, 6)))
        x = Tensor(rng.normal(size=(4, 3, 6, 6)), requires_grad=True)
        learned_pow2_fake_quantize(x, log2_t, 8).sum().backward()
        assert log2_t.grad.shape == (1, 1, 6, 6)


class TestQuantizerModule:
    def test_per_tap_scale_shape(self, rng):
        quantizer = Quantizer(8, "per_tap")
        x = Tensor(rng.normal(size=(2, 3, 4, 4, 6, 6)))
        quantizer(x)
        assert quantizer.scale().shape == (1, 1, 1, 1, 6, 6)

    def test_power_of_two_scales_are_pow2(self, rng):
        quantizer = Quantizer(8, "per_tap", power_of_two=True)
        quantizer(Tensor(rng.normal(size=(2, 2, 6, 6))))
        shifts = np.log2(quantizer.scale())
        np.testing.assert_allclose(shifts, np.round(shifts), atol=1e-9)

    def test_disabled_quantizer_is_identity(self, rng):
        quantizer = Quantizer(8, enabled=False)
        x = rng.normal(size=(5, 5))
        np.testing.assert_allclose(quantizer(Tensor(x)).data, x)

    def test_freeze_stops_observer_updates(self, rng):
        quantizer = Quantizer(8, "per_tensor", observer_momentum=1.0)
        quantizer(Tensor(np.ones((4, 4))))
        quantizer.freeze()
        quantizer(Tensor(100 * np.ones((4, 4))))
        assert quantizer.observer.max_value() < 2.0

    def test_enable_learned_scale_requires_pow2(self, rng):
        quantizer = Quantizer(8, "per_tap", power_of_two=False)
        quantizer(Tensor(rng.normal(size=(2, 2, 6, 6))))
        with pytest.raises(RuntimeError):
            quantizer.enable_learned_scale()

    def test_learned_scale_receives_gradients(self, rng):
        quantizer = Quantizer(8, "per_tap", power_of_two=True)
        x = Tensor(rng.normal(size=(2, 2, 6, 6)), requires_grad=True)
        quantizer(x)
        param = quantizer.enable_learned_scale()
        out = quantizer(x)
        (out * out).sum().backward()
        assert param.grad is not None and param.grad.shape == (1, 1, 6, 6)

    def test_quantization_error_small_for_uniform_data(self, rng):
        quantizer = Quantizer(8, "per_tensor")
        x = rng.uniform(-1, 1, size=(64, 64))
        out = quantizer(Tensor(x)).data
        assert np.abs(out - x).mean() < 0.01

    def test_int_helpers_consistent_with_forward(self, rng):
        quantizer = Quantizer(8, "per_tensor")
        x = rng.normal(size=(16, 16))
        fake = quantizer(Tensor(x)).data
        ints = quantizer.quantize_int(x)
        np.testing.assert_allclose(quantizer.dequantize(ints), fake, atol=1e-12)


class TestInPlaceFakeQuant:
    """The one-buffer fake quantization is bit-identical to the original
    four-temporary formulas (kept in ``composed_winograd``)."""

    @pytest.mark.parametrize("scale_shape", [(), (1, 1, 6, 6), (3, 1, 1, 1)])
    def test_fake_quantize_matches_original(self, rng, scale_shape):
        x = rng.normal(size=(3, 2, 6, 6)) * 4.0
        scale = np.abs(rng.normal(size=scale_shape)) * 0.02 + 0.005
        grad = rng.normal(size=x.shape)
        got_x, want_x = Tensor(x, requires_grad=True), Tensor(x, requires_grad=True)
        got = fake_quantize(got_x, scale, 6)
        want = composed.fake_quantize(want_x, scale, 6)
        got.backward(grad)
        want.backward(grad)
        np.testing.assert_array_equal(got.data, want.data)
        np.testing.assert_array_equal(got_x.grad, want_x.grad)
        assert (np.abs(x / scale) > 31).any()       # the clip is exercised

    def test_learned_pow2_matches_original(self, rng):
        x = rng.normal(size=(2, 3, 4, 4, 6, 6)) * 3.0
        log2_t = rng.normal(size=(1, 1, 1, 1, 6, 6)) - 5.0
        grad = rng.normal(size=x.shape)
        results = []
        for fn in (learned_pow2_fake_quantize, composed.learned_pow2_fake_quantize):
            xt, pt = Tensor(x, requires_grad=True), Parameter(log2_t.copy())
            out = fn(xt, pt, 8)
            out.backward(grad)
            results.append((out.data, xt.grad, pt.grad))
        for got, want in zip(*results):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("granularity", list(Granularity))
    def test_quantizer_forward_matches_original(self, rng, granularity):
        new, old = (Quantizer(8, granularity, power_of_two=True) for _ in range(2))
        for _ in range(3):
            x = rng.normal(size=(2, 3, 4, 4, 6, 6))
            x[0] = 0.0                                    # an all-zero group
            np.testing.assert_array_equal(
                new(Tensor(x)).data, composed.quantizer_forward(old, Tensor(x)).data)
            np.testing.assert_array_equal(new.observer.running_max,
                                          old.observer.running_max)

    @pytest.mark.parametrize("granularity", list(Granularity))
    def test_observer_matches_abs_max(self, rng, granularity):
        x = rng.normal(size=(3, 2, 5, 6, 6))
        x[1] = 0.0
        observer = RunningMaxObserver(granularity)
        observer.update(x)
        axes = reduction_axes(granularity, x.ndim)
        want = np.maximum(np.abs(x).max(axis=axes, keepdims=True), 1e-12)
        np.testing.assert_array_equal(observer.running_max, want)
