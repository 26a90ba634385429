"""Tests for the quantized layers, integer inference, KD, and the QAT flow."""

import numpy as np
import pytest

from repro.nn import functional as F
from repro.nn.layers import Conv2d
from repro.nn.module import Sequential
from repro.nn.tensor import Tensor, no_grad
from repro.quant import (DistillationLoss, Granularity, QatConfig, QuantConv2d,
                         QuantWinogradConv2d, TapwiseScales,
                         accumulator_bits_required, calibrate_model,
                         calibrate_tapwise_scales, convert_model,
                         enable_learned_scales, evaluate, freeze_calibration,
                         integer_winograd_conv2d)
from repro.models.small import MicroNet, TinyConvNet
from repro.winograd import winograd_f2, winograd_f4


class TestQuantConv2d:
    def test_forward_close_to_float(self, rng):
        layer = QuantConv2d(3, 8, 3, padding=1)
        x = rng.normal(size=(2, 3, 10, 10))
        out = layer(Tensor(x)).data
        ref = F.conv2d_numpy(x, layer.weight.data, layer.bias.data, padding=1)
        rel = np.abs(out - ref).mean() / np.abs(ref).mean()
        assert rel < 0.05

    def test_from_float_copies_weights(self, rng):
        conv = Conv2d(3, 4, 3, padding=1)
        qconv = QuantConv2d.from_float(conv)
        np.testing.assert_allclose(qconv.weight.data, conv.weight.data)

    def test_per_channel_weights_scale_shape(self, rng):
        layer = QuantConv2d(3, 8, 3, padding=1, per_channel_weights=True)
        layer(Tensor(rng.normal(size=(1, 3, 8, 8))))
        assert layer.weight_quant.scale().shape == (8, 1, 1, 1)


class TestQuantWinogradConv2d:
    @pytest.mark.parametrize("transform", ["F2", "F4"])
    def test_forward_close_to_float(self, transform, rng):
        layer = QuantWinogradConv2d(3, 8, transform=transform)
        x = rng.normal(size=(2, 3, 12, 12))
        out = layer(Tensor(x)).data
        ref = F.conv2d_numpy(x, layer.weight.data, layer.bias.data, padding=1)
        rel = np.abs(out - ref).mean() / np.abs(ref).mean()
        assert rel < 0.25

    def test_tapwise_beats_layerwise_quantization_error(self, rng):
        """The core claim: per-tap scales give lower error than a single scale."""
        x = rng.normal(size=(2, 3, 16, 16))
        errors = {}
        for tapwise in (False, True):
            layer = QuantWinogradConv2d(3, 8, transform="F4", tapwise=tapwise, seed=0
                                        ) if False else QuantWinogradConv2d(
                3, 8, transform="F4", tapwise=tapwise)
            layer.weight.data = rng.normal(size=layer.weight.shape)
            ref = F.conv2d_numpy(x, layer.weight.data, layer.bias.data, padding=1)
            out = layer(Tensor(x)).data
            errors[tapwise] = np.abs(out - ref).mean() / np.abs(ref).mean()
        assert errors[True] < errors[False]

    def test_extended_bits_reduce_error(self, rng):
        x = rng.normal(size=(1, 3, 16, 16))
        errors = {}
        for bits in (8, 10):
            layer = QuantWinogradConv2d(3, 6, transform="F4", wino_bits=bits)
            layer.weight.data = rng.normal(size=layer.weight.shape) * 0.1
            ref = F.conv2d_numpy(x, layer.weight.data, layer.bias.data, padding=1)
            out = layer(Tensor(x)).data
            errors[bits] = np.abs(out - ref).mean() / (np.abs(ref).mean() + 1e-12)
        assert errors[10] < errors[8]

    def test_backward_produces_weight_gradients(self, rng):
        layer = QuantWinogradConv2d(2, 4, transform="F4", power_of_two=True)
        x = Tensor(rng.normal(size=(1, 2, 8, 8)), requires_grad=True)
        out = layer(x)
        (out * out).sum().backward()
        assert layer.weight.grad is not None
        assert x.grad is not None

    def test_learned_scales_and_shift_summary(self, rng):
        layer = QuantWinogradConv2d(2, 4, transform="F4", power_of_two=True)
        layer(Tensor(rng.normal(size=(1, 2, 8, 8))))
        params = layer.enable_learned_scales()
        assert len(params) == 2
        shifts = layer.learned_shift_summary()
        assert shifts["input"].shape[-2:] == (6, 6)
        # power-of-two scales -> integer shifts
        np.testing.assert_allclose(shifts["weight"], np.round(shifts["weight"]),
                                   atol=1e-9)

    def test_strided_or_large_kernel_rejected(self):
        with pytest.raises(ValueError):
            QuantWinogradConv2d(3, 4, kernel_size=5)
        with pytest.raises(ValueError):
            QuantWinogradConv2d(3, 4, stride=2)

    def test_not_winograd_aware_trains_on_standard_path(self, rng):
        layer = QuantWinogradConv2d(2, 4, transform="F4", winograd_aware=False)
        layer.train()
        x = rng.normal(size=(1, 2, 8, 8))
        out_train = layer(Tensor(x)).data
        layer.eval()
        out_eval = layer(Tensor(x)).data
        # Training path (standard conv) and eval path (Winograd) are both close
        # to the float reference but not identical to each other.
        assert out_train.shape == out_eval.shape

    def test_winograd_quantizers_need_the_clipped_ste(self, rng):
        layer = QuantWinogradConv2d(2, 4, transform="F4")
        layer.input_wino_quant.ste = "pass"
        with pytest.raises(ValueError):
            layer(Tensor(rng.normal(size=(1, 2, 8, 8))))

    def test_channel_and_tap_granularity(self, rng):
        layer = QuantWinogradConv2d(2, 4, transform="F4",
                                    granularity=Granularity.PER_CHANNEL_AND_TAP)
        layer(Tensor(rng.normal(size=(1, 2, 8, 8))))
        assert layer.weight_wino_quant.scale().shape == (4, 1, 6, 6)


class TestIntegerInference:
    def test_integer_path_matches_fake_quant_semantics(self, rng):
        """Integer-only inference must equal the dequantize-multiply semantics."""
        x = rng.normal(size=(2, 3, 12, 12))
        w = rng.normal(size=(4, 3, 3, 3))
        transform = winograd_f4()
        scales = calibrate_tapwise_scales(x, w, transform, power_of_two=True)
        out_int, stats = integer_winograd_conv2d(x, w, transform, scales,
                                                 return_stats=True)
        ref = F.conv2d_numpy(x, w, padding=1)
        rel = np.abs(out_int - ref).mean() / np.abs(ref).mean()
        assert rel < 0.2
        assert stats["accumulator_bits"] <= 32  # fits the int32 Cube accumulator
        assert 0.4 <= stats["input_utilisation"] <= 1.0

    def test_integer_path_f2(self, rng):
        x = rng.normal(size=(1, 2, 8, 8))
        w = rng.normal(size=(3, 2, 3, 3))
        transform = winograd_f2()
        scales = calibrate_tapwise_scales(x, w, transform)
        out = integer_winograd_conv2d(x, w, transform, scales)
        ref = F.conv2d_numpy(x, w, padding=1)
        assert np.abs(out - ref).mean() / np.abs(ref).mean() < 0.1

    def test_pow2_scales_structure(self, rng):
        x = rng.normal(size=(1, 2, 8, 8))
        w = rng.normal(size=(3, 2, 3, 3))
        scales = calibrate_tapwise_scales(x, w, winograd_f4(), power_of_two=True)
        for array in (scales.input_wino, scales.weight_wino):
            shifts = np.log2(array)
            np.testing.assert_allclose(shifts, np.round(shifts), atol=1e-9)
        np.testing.assert_allclose(scales.output_wino,
                                   scales.input_wino * scales.weight_wino)

    def test_accumulator_bits_required(self):
        assert accumulator_bits_required(0) == 1
        assert accumulator_bits_required(127) == 8
        assert accumulator_bits_required(128) == 9
        assert accumulator_bits_required(2 ** 30) == 32


class TestDistillation:
    def test_kd_loss_zero_when_student_equals_teacher_and_correct(self, rng):
        logits = np.zeros((2, 3))
        logits[0, 1] = 10.0
        logits[1, 2] = 10.0
        loss = DistillationLoss(temperature=2.0, alpha=0.5)(
            Tensor(logits, requires_grad=True), Tensor(logits), np.array([1, 2]))
        assert loss.item() < 1e-3

    def test_kd_alpha_bounds(self):
        with pytest.raises(ValueError):
            DistillationLoss(alpha=1.5)
        with pytest.raises(ValueError):
            DistillationLoss(temperature=0.0)

    def test_kd_gradients_flow_to_student_only(self, rng):
        student = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
        teacher = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
        loss = DistillationLoss(alpha=0.0)(student, teacher, np.zeros(4, dtype=int))
        loss.backward()
        assert student.grad is not None
        assert teacher.grad is None


class TestQatFlow:
    def test_convert_model_maps_layers_correctly(self):
        model = TinyConvNet(num_classes=4)
        config = QatConfig(algorithm="F4", tapwise=True)
        qmodel = convert_model(model, config)
        kinds = [type(m).__name__ for m in qmodel.modules()]
        assert "QuantWinogradConv2d" in kinds
        assert "Conv2d" not in kinds

    def test_convert_model_keeps_pointwise_as_quantconv(self):
        model = Sequential(Conv2d(3, 4, 1), Conv2d(4, 4, 3, padding=1),
                           Conv2d(4, 4, 3, stride=2, padding=1))
        qmodel = convert_model(model, QatConfig(algorithm="F4"))
        types = [type(m).__name__ for m in qmodel]
        assert types == ["QuantConv2d", "QuantWinogradConv2d", "QuantConv2d"]

    def test_convert_preserves_float_predictions_roughly(self, rng):
        model = MicroNet(num_classes=4)
        model.eval()
        x = Tensor(rng.normal(size=(4, 3, 12, 12)))
        with no_grad():
            float_logits = model(x).data
        qmodel = convert_model(model, QatConfig(algorithm="F4", tapwise=True))
        qmodel.eval()
        with no_grad():
            q_logits = qmodel(x).data
        assert (np.argmax(float_logits, -1) == np.argmax(q_logits, -1)).mean() >= 0.5

    def test_quantize_false_returns_plain_copy(self):
        model = MicroNet()
        qmodel = convert_model(model, QatConfig(quantize=False))
        assert all(type(m).__name__ != "QuantWinogradConv2d" for m in qmodel.modules())

    def test_calibrate_freeze_enable_learned_scales(self, rng):
        from repro.nn.data import ArrayDataset, DataLoader
        model = convert_model(MicroNet(num_classes=4),
                              QatConfig(algorithm="F4", power_of_two=True,
                                        learned_log2=True))
        data = ArrayDataset(rng.normal(size=(8, 3, 12, 12)),
                            rng.integers(0, 4, size=8))
        loader = DataLoader(data, batch_size=4)
        calibrate_model(model, loader, max_batches=2)
        params = enable_learned_scales(model)
        assert len(params) == 4  # two Winograd layers x (input, weight)
        freeze_calibration(model)
        accuracy = evaluate(model, loader)
        assert 0.0 <= accuracy <= 1.0

    def test_config_labels(self):
        assert QatConfig(algorithm="im2col").label() == "im2col-int8"
        label = QatConfig(algorithm="F4", tapwise=True, power_of_two=True,
                          learned_log2=True, knowledge_distillation=True,
                          wino_bits=10).label()
        assert "tap" in label and "2x" in label and "log2" in label and "KD" in label
        assert "8/10" in label
