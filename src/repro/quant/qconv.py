"""Quantized convolution layers: im2col int8 baseline and tap-wise Winograd.

:class:`QuantWinogradConv2d` is the layer realising the paper's contribution:
a Winograd F2/F4 convolution whose Winograd-domain inputs and weights are
quantized *per tap*, with optional power-of-two and learned (∇ log2 t) scale
factors.  Training through this layer is "Winograd-aware" in the sense of
Section III-A — the gradients flow through the transforms and through the
fake-quantization STE.  The layer's Winograd convolution is one fused
autograd node (:func:`repro.engine.execute_tensor`): its quantizers reach
the kernel as a :class:`repro.kernels.TapFakeQuant` spec, and the kernel
fake-quantizes the ``BT x B`` and ``G f GT`` taps between the transforms and
the tap contraction.
"""

from __future__ import annotations

import numpy as np

from ..kernels import KernelBackend, TapFakeQuant
from ..nn import functional as F
from ..nn import init
from ..nn.module import Module, Parameter
from ..nn.tensor import Tensor, as_tensor
from ..winograd.transforms import WinogradTransform, get_transform
from .observer import Granularity
from .quantizer import Quantizer

__all__ = ["QuantConv2d", "QuantWinogradConv2d"]


class QuantConv2d(Module):
    """int8 im2col convolution (the paper's quantized baseline, Table II row 2).

    Weights and activations are fake-quantized in the spatial domain with
    per-tensor (activations) and per-tensor or per-channel (weights) scales.
    """

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 stride: int = 1, padding: int = 0, bias: bool = True,
                 weight_bits: int = 8, act_bits: int = 8,
                 per_channel_weights: bool = False,
                 backend: str | KernelBackend | None = None,
                 rng: np.random.Generator | None = None):
        super().__init__()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        self.backend = backend
        shape = (out_channels, in_channels, kernel_size, kernel_size)
        self.weight = Parameter(init.kaiming_normal(shape, rng))
        self.bias = Parameter(init.zeros((out_channels,))) if bias else None
        weight_gran = Granularity.PER_CHANNEL if per_channel_weights else Granularity.PER_TENSOR
        self.weight_quant = Quantizer(weight_bits, weight_gran, channel_axis=0)
        self.act_quant = Quantizer(act_bits, Granularity.PER_TENSOR)

    def forward(self, x: Tensor) -> Tensor:
        xq = self.act_quant(x)
        wq = self.weight_quant(self.weight)
        return F.conv2d(xq, wq, self.bias, stride=self.stride,
                        padding=self.padding, backend=self.backend)

    # ------------------------------------------------------------------ #
    # Serving support (repro.serve compiled models)
    # ------------------------------------------------------------------ #
    def is_calibrated(self) -> bool:
        """True once every quantizer has a frozen/observed scale."""
        return self.weight_quant.has_scale() and self.act_quant.has_scale()

    def bind_inference_weights(self, backend: str | KernelBackend | None = None
                               ) -> np.ndarray:
        """Eval-mode fake-quantized weights, snapshot for a compiled model.

        Bit-identical to what the eval forward would feed its convolution.
        """
        del backend  # the spatial fake-quant is backend-independent
        return self.weight_quant.fake_quantize_array(self.weight.data)

    @classmethod
    def from_float(cls, conv, weight_bits: int = 8, act_bits: int = 8,
                   per_channel_weights: bool = False,
                   backend: str | KernelBackend | None = None) -> "QuantConv2d":
        """Build a quantized copy of a float :class:`repro.nn.Conv2d`."""
        layer = cls(conv.in_channels, conv.out_channels, conv.kernel_size,
                    stride=conv.stride, padding=conv.padding,
                    bias=conv.bias is not None, weight_bits=weight_bits,
                    act_bits=act_bits, per_channel_weights=per_channel_weights,
                    backend=backend)
        layer.weight.data = conv.weight.data.copy()
        if conv.bias is not None:
            layer.bias.data = conv.bias.data.copy()
        return layer


class QuantWinogradConv2d(Module):
    """Tap-wise quantized Winograd convolution (the paper's core layer).

    Parameters
    ----------
    transform:
        ``"F2"``, ``"F4"`` or a :class:`WinogradTransform` instance.
    spatial_bits:
        Bit width of the spatial-domain weight/activation quantization
        (8 in all of the paper's experiments; ``None`` disables it, which
        corresponds to the FP32-io LoWino-style configuration).
    wino_bits:
        Bit width used inside the Winograd domain: 8 for the full-int8 rows
        of Table II, 9/10 for the "int8/9" / "int8/10" rows.
    tapwise:
        Per-tap scale factors (the contribution).  When false a single scalar
        per transformation is used, reproducing the baseline that collapses
        for F4 (−13.6 % in Table II).
    granularity:
        Overrides ``tapwise`` with an explicit granularity (e.g.
        ``per_channel_and_tap`` for the combined strategy of Fig. 4).
    power_of_two:
        Restrict the Winograd-domain scales to powers of two (Section III-B);
        :meth:`enable_learned_scales` then makes them learned ``log2 t``.
    winograd_aware:
        If false, the layer trains on the standard (im2col) path and only uses
        Winograd at evaluation time — the "not Winograd-aware" ablation.
    backend:
        Kernel backend override for this layer's convolutions (see
        :mod:`repro.kernels`); ``None`` follows the process-wide selection.
    """

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int = 3,
                 stride: int = 1, padding: int = 1, bias: bool = True,
                 transform: str | WinogradTransform = "F4",
                 spatial_bits: int | None = 8, wino_bits: int = 8,
                 tapwise: bool = True,
                 granularity: Granularity | str | None = None,
                 power_of_two: bool = False,
                 winograd_aware: bool = True,
                 backend: str | KernelBackend | None = None,
                 rng: np.random.Generator | None = None):
        super().__init__()
        if kernel_size != 3:
            raise ValueError("Winograd layers in this reproduction support 3x3 kernels only")
        if stride != 1:
            raise ValueError(
                "strided convolutions are not executed with Winograd (Section III); "
                "use QuantConv2d instead")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        self.transform = (transform if isinstance(transform, WinogradTransform)
                          else get_transform(transform))
        self.winograd_aware = winograd_aware
        self.wino_bits = wino_bits
        self.spatial_bits = spatial_bits
        self.backend = backend

        shape = (out_channels, in_channels, kernel_size, kernel_size)
        self.weight = Parameter(init.kaiming_normal(shape, rng))
        self.bias = Parameter(init.zeros((out_channels,))) if bias else None

        if granularity is None:
            granularity = Granularity.PER_TAP if tapwise else Granularity.PER_TENSOR
        granularity = Granularity.parse(granularity)
        self.granularity = granularity

        # Spatial-domain int8 quantizers (Eq. 2 applied to x̂ and f̂).
        if spatial_bits is not None:
            self.act_quant = Quantizer(spatial_bits, Granularity.PER_TENSOR)
            self.weight_quant = Quantizer(spatial_bits, Granularity.PER_TENSOR)
        else:
            self.act_quant = None
            self.weight_quant = None

        # Winograd-domain quantizers (B^T x B and G f G^T), tap-wise by default.
        self.input_wino_quant = Quantizer(wino_bits, granularity,
                                          power_of_two=power_of_two)
        self.weight_wino_quant = Quantizer(wino_bits, granularity,
                                           power_of_two=power_of_two)

    # ------------------------------------------------------------------ #
    # Configuration helpers
    # ------------------------------------------------------------------ #
    def enable_learned_scales(self) -> list[Parameter]:
        """Turn the Winograd-domain scales into trainable log2 parameters.

        Must be called after at least one calibration forward pass.  Returns
        the new parameters so the caller can hand them to an Adam optimizer
        (the paper trains scales with Adam, weights with SGD).
        """
        return [self.input_wino_quant.enable_learned_scale(),
                self.weight_wino_quant.enable_learned_scale()]

    def learned_shift_summary(self) -> dict[str, np.ndarray]:
        """Bit-shift amounts implied by the current (power-of-two) scales.

        Reproduces the analysis at the end of Section V-A2: feature maps are
        shifted by ~1–5 bits, weights by ~2–10 bits.
        """
        out = {}
        for name, quant in (("input", self.input_wino_quant),
                            ("weight", self.weight_wino_quant)):
            scale = quant.scale()
            out[name] = np.log2(np.maximum(scale, 1e-30))
        return out

    # ------------------------------------------------------------------ #
    # Forward
    # ------------------------------------------------------------------ #
    def forward(self, x: Tensor) -> Tensor:
        x = as_tensor(x)
        if self.act_quant is not None:
            x = self.act_quant(x)
        weight = self.weight
        if self.weight_quant is not None:
            weight = self.weight_quant(weight)

        if not self.winograd_aware and self.training:
            # Train on the standard path; Winograd only used at inference.
            return F.conv2d(x, weight, self.bias, stride=1, padding=self.padding,
                            backend=self.backend)

        from .. import engine

        plan = engine.lower_winograd(x.shape, weight.shape, self.transform,
                                     self.padding, backend=self.backend)
        return engine.execute_tensor(plan, x, weight, self.bias,
                                     quant=self.tap_fake_quant())

    def tap_fake_quant(self) -> TapFakeQuant:
        """The kernel spec of this layer's Winograd-domain quantizers.

        The kernel calls each quantizer's :meth:`Quantizer.observe` with the
        taps it is about to fake-quantize, so calibration, frozen and learned
        scales behave exactly as in the quantizer's own forward.
        """
        qi, qw = self.input_wino_quant, self.weight_wino_quant
        for q in (qi, qw):
            if not q.signed or q.ste != "clip":
                raise ValueError("Winograd-domain quantizers must be signed "
                                 "with the clipped STE")
        return TapFakeQuant(qi.n_bits, qw.n_bits, qi.observe, qw.observe,
                            qi.log2_t, qw.log2_t)

    # ------------------------------------------------------------------ #
    # Serving support (repro.serve compiled models)
    # ------------------------------------------------------------------ #
    def is_calibrated(self) -> bool:
        """True once every active quantizer has a frozen/observed scale."""
        quants = [self.input_wino_quant, self.weight_wino_quant]
        if self.act_quant is not None:
            quants += [self.act_quant, self.weight_quant]
        return all(q.has_scale() for q in quants)

    def bind_inference_weights(self) -> np.ndarray:
        """Eval-mode spatially fake-quantized weights, snapshot for serving.

        Bit-identical to what the eval forward feeds the fused Winograd
        kernel, which transforms and tap-wise quantizes them itself.
        """
        if self.weight_quant is None:
            return self.weight.data
        return self.weight_quant.fake_quantize_array(self.weight.data)

    # ------------------------------------------------------------------ #
    # Conversion
    # ------------------------------------------------------------------ #
    @classmethod
    def from_float(cls, conv, **kwargs) -> "QuantWinogradConv2d":
        """Build a tap-wise quantized copy of a float :class:`repro.nn.Conv2d`."""
        layer = cls(conv.in_channels, conv.out_channels, conv.kernel_size,
                    stride=conv.stride, padding=conv.padding,
                    bias=conv.bias is not None, **kwargs)
        layer.weight.data = conv.weight.data.copy()
        if conv.bias is not None:
            layer.bias.data = conv.bias.data.copy()
        return layer

    def __repr__(self) -> str:  # pragma: no cover
        return (f"QuantWinogradConv2d({self.in_channels}, {self.out_channels}, "
                f"transform={self.transform.name}, bits={self.spatial_bits}/"
                f"{self.wino_bits}, granularity={self.granularity.value})")
