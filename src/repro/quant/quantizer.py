"""Symmetric integer quantization with straight-through-estimator training.

Implements Eq. (2) of the paper::

    x̂_intn = clamp(⌊x / s⌉, -2^{n-1}, 2^{n-1} - 1),   s = x_max / 2^{n-1}

together with its *fake-quantized* (quantize–dequantize) form used during
Winograd-aware training, at any of the granularities of
:mod:`repro.quant.observer`.
"""

from __future__ import annotations

import numpy as np

from ..kernels.fake_quant import fake_quantize as kernel_fake_quantize
from ..nn.module import Module, Parameter
from ..nn.tensor import Tensor, as_tensor
from .observer import Granularity, RunningMaxObserver, scale_shape
from .power_of_two import (learned_pow2_fake_quantize, pow2_gradient_scale,
                           round_scale_to_power_of_two)

__all__ = [
    "quant_range",
    "quantize_int",
    "dequantize",
    "compute_scale",
    "fake_quantize",
    "Quantizer",
]


def quant_range(n_bits: int, signed: bool = True) -> tuple[int, int]:
    """Integer range of an ``n_bits`` quantizer (e.g. [-128, 127] for int8)."""
    if n_bits < 2:
        raise ValueError("need at least 2 bits for signed quantization")
    if signed:
        return -(1 << (n_bits - 1)), (1 << (n_bits - 1)) - 1
    return 0, (1 << n_bits) - 1


def compute_scale(max_value: np.ndarray, n_bits: int, signed: bool = True) -> np.ndarray:
    """Scale factor ``s = x_max / (2^{n-1} - 1)`` (elementwise)."""
    _, qmax = quant_range(n_bits, signed)
    return np.maximum(np.asarray(max_value, dtype=np.float64), 1e-12) / float(qmax)


def quantize_int(x: np.ndarray, scale: np.ndarray, n_bits: int,
                 signed: bool = True) -> np.ndarray:
    """Quantize to integers (Eq. 2), returned as int64 for headroom."""
    qmin, qmax = quant_range(n_bits, signed)
    q = np.rint(np.asarray(x, dtype=np.float64) / scale)
    return np.clip(q, qmin, qmax).astype(np.int64)


def dequantize(q: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """Map integers back to the real domain."""
    return np.asarray(q, dtype=np.float64) * scale


def fake_quantize(x: Tensor, scale: np.ndarray, n_bits: int,
                  signed: bool = True, ste: str = "clip") -> Tensor:
    """Quantize–dequantize with a straight-through estimator.

    Parameters
    ----------
    ste:
        ``"clip"`` passes gradients only for values inside the clipping range
        (the common QAT practice); ``"pass"`` is the pure STE of the paper
        (derivative of rounding treated as identity everywhere).
    """
    x = as_tensor(x)
    scale = np.asarray(scale, dtype=np.float64)
    out, inside = kernel_fake_quantize(x.data, scale, *quant_range(n_bits, signed))

    if ste == "pass":
        def _backward(grad):
            return (grad,)
    else:
        def _backward(grad):
            return (grad * inside,)

    return Tensor.from_op(out, (x,), _backward)


class Quantizer(Module):
    """A trainable fake-quantization node.

    Lifecycle
    ---------
    1. **Calibration** — while ``collect_stats`` is true (and the module is in
       training mode) every forward pass updates a running-max observer.
    2. **(Optional) scale learning** — :meth:`enable_learned_scale` converts
       the calibrated scale into a ``log2 t`` parameter that is trained with
       the power-of-two STE gradient of Eq. (3).
    3. **Inference** — the forward pass simply fake-quantizes with the frozen
       (or learned) scale.

    Parameters
    ----------
    n_bits:
        Bit width (8 for int8; 9/10 for the paper's "int8/9", "int8/10"
        Winograd-domain configurations).
    granularity:
        One of ``per_tensor``, ``per_channel``, ``per_tap``,
        ``per_channel_and_tap``.
    power_of_two:
        Round scales to the next power of two (Section III-B).
    """

    def __init__(self, n_bits: int = 8,
                 granularity: Granularity | str = Granularity.PER_TENSOR,
                 channel_axis: int = 0, power_of_two: bool = False,
                 observer_momentum: float = 0.1, ste: str = "clip",
                 signed: bool = True, enabled: bool = True):
        super().__init__()
        self.n_bits = int(n_bits)
        self.granularity = Granularity.parse(granularity)
        self.channel_axis = channel_axis
        self.power_of_two = bool(power_of_two)
        self.ste = ste
        self.signed = signed
        self.enabled = enabled
        self.collect_stats = True
        self.observer = RunningMaxObserver(self.granularity, channel_axis,
                                           momentum=observer_momentum)
        self.log2_t: Parameter | None = None

    # ------------------------------------------------------------------ #
    # Scale management
    # ------------------------------------------------------------------ #
    def is_learned(self) -> bool:
        return self.log2_t is not None

    def has_scale(self) -> bool:
        return self.is_learned() or self.observer.has_data()

    def scale(self) -> np.ndarray:
        """Current effective scale factor (power-of-two rounded if requested)."""
        if self.is_learned():
            return pow2_gradient_scale(self.log2_t.data)
        raw = compute_scale(self.observer.max_value(), self.n_bits, self.signed)
        if self.power_of_two:
            return round_scale_to_power_of_two(raw)
        return raw

    def enable_learned_scale(self) -> Parameter:
        """Switch to a learned power-of-two scale (∇log2 t training).

        The parameter is initialised from the calibrated scale; requires the
        observer to have seen data.
        """
        if not self.power_of_two:
            raise RuntimeError("learned scales are only supported in power-of-two mode")
        if self.is_learned():
            return self.log2_t
        raw = compute_scale(self.observer.max_value(), self.n_bits, self.signed)
        self.log2_t = Parameter(np.log2(np.maximum(raw, 1e-12)))
        return self.log2_t

    def freeze(self) -> None:
        """Stop updating calibration statistics."""
        self.collect_stats = False

    def unfreeze(self) -> None:
        self.collect_stats = True

    # ------------------------------------------------------------------ #
    # Forward
    # ------------------------------------------------------------------ #
    def forward(self, x: Tensor) -> Tensor:
        if not self.enabled:
            return as_tensor(x)
        x = as_tensor(x)
        if self.is_learned():
            return learned_pow2_fake_quantize(x, self.log2_t, self.n_bits,
                                              signed=self.signed)
        return fake_quantize(x, self.observe(x.data), self.n_bits, self.signed,
                             self.ste)

    def observe(self, values: np.ndarray) -> np.ndarray | None:
        """The forward's observer update, then the current scale.

        This is the scale callback a fused kernel calls with the values it
        is about to fake-quantize (:class:`repro.kernels.TapFakeQuant`):
        the observer sees them while calibrating (training mode with
        ``collect_stats``, or before any data); a learned scale is never
        observed.  ``None`` when the quantizer is disabled.
        """
        if not self.enabled:
            return None
        if not self.is_learned() and (self.collect_stats and self.training
                                      or not self.observer.has_data()):
            self.observer.update(values)
        return self.scale()

    def fake_quantize_array(self, x: np.ndarray) -> np.ndarray:
        """Eval-mode fake quantization on a plain ndarray (no graph, no stats).

        Uses the frozen (calibrated or learned) scale and the exact arithmetic
        of the Tensor forward — ``clip(rint(x / s)) * s`` — so the result is
        bit-identical to calling the module in eval mode.  Used by the serving
        layer (:mod:`repro.serve`) to replay quantized layers from a compiled
        snapshot.  Requires :meth:`has_scale`.
        """
        if not self.enabled:
            return np.asarray(x)
        scale = self.scale()
        qmin, qmax = quant_range(self.n_bits, self.signed)
        return np.clip(np.rint(np.asarray(x) / scale), qmin, qmax) * scale

    # ------------------------------------------------------------------ #
    # Integer helpers (for integer-only inference simulation)
    # ------------------------------------------------------------------ #
    def quantize_int(self, x: np.ndarray) -> np.ndarray:
        return quantize_int(x, self.scale(), self.n_bits, self.signed)

    def dequantize(self, q: np.ndarray) -> np.ndarray:
        return dequantize(q, self.scale())

    def expected_scale_shape(self, tensor_shape: tuple[int, ...]) -> tuple[int, ...]:
        return scale_shape(self.granularity, tensor_shape, self.channel_axis)

    def __repr__(self) -> str:  # pragma: no cover
        return (f"Quantizer(bits={self.n_bits}, granularity={self.granularity.value}, "
                f"pow2={self.power_of_two}, learned={self.is_learned()})")
