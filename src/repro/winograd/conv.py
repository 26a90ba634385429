"""Winograd convolution entry points: numpy forward and one autograd node.

* :func:`winograd_conv2d` — a pure-numpy forward pass used as the reference in
  tests and analyses.  For unit-stride 3x3 convolutions it matches the im2col
  convolution to floating-point precision.

* :func:`winograd_conv2d_tensor` — the differentiable version: the whole
  convolution is a single autograd node around the backend's fused
  forward+backward kernel (:func:`repro.engine.execute_tensor`).  The
  tap-wise quantized layer (:class:`repro.quant.qconv.QuantWinogradConv2d`)
  reaches the same node with a :class:`repro.kernels.TapFakeQuant` spec, so
  the Winograd-domain fake quantization of the paper's Winograd-aware
  training (Section III-A) runs inside the kernel.

Both entry points *lower-then-execute*: the layer shape is compiled once into
a cached :class:`~repro.engine.LayerPlan` (backend, transform, padding/tiling
geometry) and executed through :mod:`repro.engine`, whose
kernels dispatch through :mod:`repro.kernels`.  Every public entry point
takes an optional ``backend=`` argument (``"fast"``/``"reference"``/a
:class:`~repro.kernels.KernelBackend`) for per-call opt-out; by default the
process-wide backend is used (``fast`` unless overridden).
"""

from __future__ import annotations

import numpy as np

from ..kernels import KernelBackend, get_backend
from ..nn.tensor import Tensor, as_tensor
from .transforms import WinogradTransform, winograd_f4

__all__ = [
    "winograd_conv2d",
    "winograd_conv2d_tensor",
    "winograd_output_shape",
]


def winograd_output_shape(h: int, w: int, r: int = 3, padding: int = 1,
                          ) -> tuple[int, int]:
    """Spatial output size of a unit-stride convolution."""
    return h + 2 * padding - r + 1, w + 2 * padding - r + 1


# --------------------------------------------------------------------------- #
# Pure numpy forward
# --------------------------------------------------------------------------- #
def winograd_conv2d(x: np.ndarray, weight: np.ndarray,
                    transform: WinogradTransform | None = None,
                    bias: np.ndarray | None = None,
                    padding: int = 1,
                    backend: str | KernelBackend | None = None) -> np.ndarray:
    """Unit-stride 2-D convolution computed with the Winograd algorithm.

    Parameters
    ----------
    x:
        Input feature map, shape ``(N, Cin, H, W)``.
    weight:
        Kernels, shape ``(Cout, Cin, r, r)``.
    transform:
        Winograd transform to use; defaults to F4.
    bias:
        Optional per-output-channel bias.
    padding:
        Symmetric zero padding (1 gives "same" output for 3x3 kernels).
    backend:
        Kernel backend override for this call (see :mod:`repro.kernels`).
    """
    from .. import engine

    be = get_backend(backend)
    transform = transform or winograd_f4()
    if weight.shape[2] != transform.r or weight.shape[3] != transform.r:
        raise ValueError(
            f"kernel size {weight.shape[2:]} does not match transform r={transform.r}")
    plan = engine.lower_winograd(x.shape, weight.shape, transform, padding,
                                 backend=be)
    return engine.execute(plan, x, weight, bias)


def winograd_conv2d_tensor(x: Tensor, weight: Tensor,
                           transform: WinogradTransform | None = None,
                           bias: Tensor | None = None,
                           padding: int = 1,
                           backend: str | KernelBackend | None = None) -> Tensor:
    """Differentiable Winograd convolution as one fused autograd node.

    The layer shape is lowered through the shared plan cache; ``backend``
    selects the kernel backend for the forward *and* the backward.
    """
    from .. import engine

    x = as_tensor(x)
    weight = as_tensor(weight)
    plan = engine.lower_winograd(x.shape, weight.shape,
                                 transform or winograd_f4(), padding,
                                 backend=get_backend(backend))
    return engine.execute_tensor(plan, x, weight, bias)
