"""Tap-wise quantization: observers, quantizers, QAT flow, error analysis."""

from .error import (QuantErrorResult, error_histogram, mean_log2_error,
                    optimal_gamma, quantize_mu_sigma, relative_error,
                    spatial_quant_error, winograd_quant_error)
from .integer import (TapwiseScales, accumulator_bits_required,
                      calibrate_tapwise_scales, integer_winograd_conv2d,
                      quantize_dequantize_spatial)
from .kd import DistillationLoss, TeacherDistillation
from .observer import (Granularity, MinMaxObserver, PercentileObserver,
                       RunningMaxObserver, reduction_axes, scale_shape)
from .pruning import (WinogradSparsityStats, effective_mac_reduction,
                      prune_winograd_weights, sparsity_statistics)
from .power_of_two import (learned_pow2_fake_quantize, pow2_gradient_scale,
                           round_scale_to_power_of_two, scale_to_shift,
                           shift_to_scale)
from .qat import (QatConfig, calibrate_model, convert_model,
                  enable_learned_scales, evaluate, finetune_optimizer,
                  freeze_calibration)
from .qconv import QuantConv2d, QuantWinogradConv2d
from .quantizer import (Quantizer, compute_scale, dequantize, fake_quantize,
                        quant_range, quantize_int)

__all__ = [
    "Granularity", "RunningMaxObserver", "MinMaxObserver", "PercentileObserver",
    "reduction_axes", "scale_shape",
    "Quantizer", "quant_range", "compute_scale", "quantize_int", "dequantize",
    "fake_quantize",
    "round_scale_to_power_of_two", "pow2_gradient_scale", "scale_to_shift",
    "shift_to_scale", "learned_pow2_fake_quantize",
    "QuantConv2d", "QuantWinogradConv2d",
    "DistillationLoss", "TeacherDistillation",
    "QatConfig", "convert_model", "calibrate_model",
    "freeze_calibration", "enable_learned_scales", "finetune_optimizer",
    "evaluate",
    "TapwiseScales", "calibrate_tapwise_scales", "integer_winograd_conv2d",
    "quantize_dequantize_spatial", "accumulator_bits_required",
    "prune_winograd_weights", "sparsity_statistics", "WinogradSparsityStats",
    "effective_mac_reduction",
    "QuantErrorResult", "quantize_mu_sigma", "relative_error", "optimal_gamma",
    "spatial_quant_error", "winograd_quant_error", "error_histogram",
    "mean_log2_error",
]
