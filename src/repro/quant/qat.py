"""Quantization-aware training flow: the recipe of Section III / V-A.

1. start from a trained FP32 baseline,
2. replace every unit-stride 3x3 convolution with a tap-wise quantized
   Winograd layer (other convolutions fall back to int8 im2col layers),
3. calibrate the observers with a few forward passes,
4. optionally switch the Winograd-domain scales to learned power-of-two
   parameters and fine-tune on :class:`repro.train.Trainer` with
   :func:`finetune_optimizer` (SGD on the weights, Adam on the scales),
   optionally distilling from the FP32 teacher
   (:class:`~repro.quant.kd.TeacherDistillation` as ``loss=``).

The :class:`QatConfig` fields map one-to-one onto the columns of Table II
(WA, ⊙ tap-wise, 2x power-of-two, ∇log2 t, KD, intn).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from ..nn.data import DataLoader
from ..nn.layers import Conv2d
from ..nn.module import Module
from ..nn.optim import SGD, Adam, ChainedOptimizer
from ..nn.tensor import Tensor, no_grad
from .qconv import QuantConv2d, QuantWinogradConv2d
from .quantizer import Quantizer

__all__ = ["QatConfig", "convert_model", "calibrate_model", "freeze_calibration",
           "enable_learned_scales", "finetune_optimizer", "evaluate"]


@dataclass
class QatConfig:
    """Configuration of one quantization experiment (one row of Table II).

    Attributes
    ----------
    algorithm:
        ``"im2col"``, ``"F2"``, or ``"F4"`` — which convolution algorithm the
        3x3 unit-stride layers use.
    winograd_aware:
        Propagate gradients through the Winograd domain during training.
    tapwise:
        Use per-tap scale factors in the Winograd domain (the contribution).
    granularity:
        Optional explicit granularity overriding ``tapwise``.
    power_of_two:
        Restrict Winograd-domain scales to powers of two.
    learned_log2:
        Train the power-of-two scales with the ∇log2 t method (Eq. 3): the
        study calls :func:`enable_learned_scales` after calibration;
        :func:`convert_model` does not read it.
    knowledge_distillation:
        Distil from the FP32 teacher during fine-tuning.
    spatial_bits / wino_bits:
        8/8 is "int8"; 8/9 and 8/10 are the "int8/9", "int8/10" rows.
    quantize:
        Master switch; ``False`` keeps the model in FP32 (baseline row).
    """

    algorithm: str = "F4"
    winograd_aware: bool = True
    tapwise: bool = True
    granularity: str | None = None
    power_of_two: bool = False
    learned_log2: bool = False
    knowledge_distillation: bool = False
    spatial_bits: int | None = 8
    wino_bits: int = 8
    per_channel_weights: bool = False
    quantize: bool = True
    kd_temperature: float = 4.0
    kd_alpha: float = 0.5

    def label(self) -> str:
        """Compact label used in tables (mirrors the paper's notation)."""
        if not self.quantize:
            return f"{self.algorithm}-FP32"
        bits = f"int{self.spatial_bits}" if self.spatial_bits else "fp"
        if self.wino_bits != self.spatial_bits:
            bits += f"/{self.wino_bits}"
        flags = []
        if self.algorithm != "im2col":
            flags.append("WA" if self.winograd_aware else "noWA")
            if self.tapwise or self.granularity:
                flags.append("tap")
        if self.power_of_two:
            flags.append("2x")
        if self.learned_log2:
            flags.append("log2")
        if self.knowledge_distillation:
            flags.append("KD")
        suffix = "+".join(flags)
        return f"{self.algorithm}-{bits}" + (f"-{suffix}" if suffix else "")


def convert_model(model: Module, config: QatConfig) -> Module:
    """Return a deep copy of ``model`` with convolutions replaced per ``config``.

    Only 3x3, unit-stride convolutions are mapped to Winograd layers, exactly
    as the paper does; 1x1 (pointwise) and strided convolutions use the
    standard int8 path.
    """
    model = copy.deepcopy(model)
    if not config.quantize:
        return model
    _convert_in_place(model, config)
    return model


def _convert_in_place(module: Module, config: QatConfig) -> None:
    for name, child in list(module._modules.items()):
        if isinstance(child, Conv2d):
            replacement = _convert_conv(child, config)
            setattr(module, name, replacement)
        else:
            _convert_in_place(child, config)


def _convert_conv(conv: Conv2d, config: QatConfig) -> Module:
    is_winograd_friendly = (conv.kernel_size == 3 and conv.stride == 1)
    if config.algorithm != "im2col" and is_winograd_friendly:
        return QuantWinogradConv2d.from_float(
            conv,
            transform=config.algorithm,
            spatial_bits=config.spatial_bits,
            wino_bits=config.wino_bits,
            tapwise=config.tapwise,
            granularity=config.granularity,
            power_of_two=config.power_of_two,
            winograd_aware=config.winograd_aware,
        )
    return QuantConv2d.from_float(
        conv,
        weight_bits=config.spatial_bits or 8,
        act_bits=config.spatial_bits or 8,
        per_channel_weights=config.per_channel_weights,
    )


def calibrate_model(model: Module, loader: DataLoader, max_batches: int = 4) -> None:
    """Run a few forward passes so every observer sees representative data."""
    model.train()
    with no_grad():
        for batch_idx, (images, _labels) in enumerate(loader):
            model(Tensor(images))
            if batch_idx + 1 >= max_batches:
                break


def freeze_calibration(model: Module) -> None:
    """Stop all quantizers from updating their running statistics."""
    for module in model.modules():
        if isinstance(module, Quantizer):
            module.freeze()


def enable_learned_scales(model: Module) -> list:
    """Enable ∇log2 t training on every Winograd layer; returns the new params."""
    params = []
    for module in model.modules():
        if isinstance(module, QuantWinogradConv2d):
            params.extend(module.enable_learned_scales())
    return params


def finetune_optimizer(model: Module, scales: list, lr: float, scale_lr: float):
    """SGD (momentum 0.9, wd 1e-4) on the weights, then Adam (betas 0.9, 0.99)
    on ``scales``, the learned ``log2 t`` :func:`enable_learned_scales` returned."""
    scale_ids = {id(param) for param in scales}
    optimizer = SGD([p for p in model.parameters() if id(p) not in scale_ids],
                    lr=lr, momentum=0.9, weight_decay=1e-4)
    if not scales:
        return optimizer
    return ChainedOptimizer(optimizer, Adam(scales, lr=scale_lr))


def evaluate(model: Module, loader: DataLoader, max_batches: int | None = None
             ) -> float:
    """Top-1 accuracy of ``model`` on ``loader``."""
    model.eval()
    correct = 0
    total = 0
    with no_grad():
        for batch_idx, (images, labels) in enumerate(loader):
            logits = model(Tensor(images))
            predictions = np.argmax(logits.data, axis=-1)
            correct += int((predictions == labels).sum())
            total += len(labels)
            if max_batches is not None and batch_idx + 1 >= max_batches:
                break
    return correct / max(total, 1)
