"""Standard neural-network layers used by the reference CNNs.

These layers are deliberately close to their PyTorch counterparts so that the
model definitions in :mod:`repro.models` read like the original Torchvision
sources the paper starts from.
"""

from __future__ import annotations

import numpy as np

from . import functional as F
from . import init
from .module import Module, Parameter
from .tensor import Tensor, as_tensor

__all__ = [
    "Conv2d",
    "Linear",
    "BatchNorm2d",
    "ReLU",
    "MaxPool2d",
    "AvgPool2d",
    "GlobalAvgPool2d",
    "Flatten",
    "Dropout",
    "Identity",
]


class Conv2d(Module):
    """2-D convolution implemented with the im2col lowering.

    This is the "standard algorithm" of the paper — the baseline that the
    Winograd layers replace for 3×3 / stride-1 cases.  Each call lowers the
    layer shape through :mod:`repro.engine`'s shared plan cache (a hit after
    the first batch) and executes the plan as one fused autograd node;
    ``backend`` optionally pins this layer to a specific kernel backend.
    """

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 stride: int = 1, padding: int = 0, bias: bool = True,
                 backend: str | None = None,
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

    def forward(self, x: Tensor) -> Tensor:
        return F.conv2d(x, self.weight, self.bias, stride=self.stride,
                        padding=self.padding, backend=self.backend)

    def extra_repr(self) -> str:  # pragma: no cover - debugging aid
        return (f"{self.in_channels}, {self.out_channels}, k={self.kernel_size}, "
                f"s={self.stride}, p={self.padding}")


class Linear(Module):
    """Fully-connected layer ``y = x Wᵀ + b``."""

    def __init__(self, in_features: int, out_features: int, bias: bool = True,
                 rng: np.random.Generator | None = None):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.kaiming_uniform((out_features, in_features), rng))
        self.bias = Parameter(init.zeros((out_features,))) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return F.linear(x, self.weight, self.bias)


class BatchNorm2d(Module):
    """Batch normalisation over the channel dimension of NCHW tensors."""

    def __init__(self, num_features: int, eps: float = 1e-5, momentum: float = 0.1):
        super().__init__()
        self.num_features = num_features
        self.eps = eps
        self.momentum = momentum
        self.weight = Parameter(init.ones((num_features,)))
        self.bias = Parameter(init.zeros((num_features,)))
        self.register_buffer("running_mean", np.zeros(num_features))
        self.register_buffer("running_var", np.ones(num_features))

    def forward(self, x: Tensor) -> Tensor:
        if self.training:
            return self._train_forward(as_tensor(x))
        mean = Tensor(self.running_mean.reshape(1, -1, 1, 1))
        var = Tensor(self.running_var.reshape(1, -1, 1, 1))
        x_hat = (x - mean) / (var + self.eps).sqrt()
        gamma = self.weight.reshape(1, self.num_features, 1, 1)
        beta = self.bias.reshape(1, self.num_features, 1, 1)
        return x_hat * gamma + beta

    def _train_forward(self, x: Tensor) -> Tensor:
        """Batch statistics as one autograd node with the closed-form backward.

        The forward keeps the operation order of the composed graph it
        replaces (mean as sum/count, variance of the centred values,
        ``(x - μ) / sqrt(var + eps) · γ + β``), so outputs and running
        statistics are bit-identical to it; the backward is the textbook
        ``dx = γ/σ · (g - mean(g) - x̂·mean(g·x̂))``.
        """
        axes = (0, 2, 3)
        data = x.data
        count = float(data.shape[0] * data.shape[2] * data.shape[3])
        mean = data.sum(axis=axes, keepdims=True) / count
        x_hat = data - mean
        out = x_hat * x_hat
        var = out.sum(axis=axes, keepdims=True) / count
        with np.errstate(all="ignore"):
            new_mean = ((1 - self.momentum) * self.running_mean
                        + self.momentum * mean.reshape(-1))
            new_var = ((1 - self.momentum) * self.running_var
                       + self.momentum * var.reshape(-1))
        self.set_buffer("running_mean", new_mean)
        self.set_buffer("running_var", new_var)
        std = np.sqrt(var + self.eps)
        x_hat /= std
        gamma = self.weight.data.reshape(1, -1, 1, 1)
        np.multiply(x_hat, gamma, out=out)
        out += self.bias.data.reshape(1, -1, 1, 1)

        def backward(grad: np.ndarray):
            dbeta = grad.sum(axis=axes)
            dx = grad * x_hat
            dgamma = dx.sum(axis=axes)
            np.multiply(x_hat, (dgamma / -count).reshape(1, -1, 1, 1), out=dx)
            dx += grad
            dx -= (dbeta / count).reshape(1, -1, 1, 1)
            dx *= gamma / std
            return dx, dgamma, dbeta

        return Tensor.from_op(out, (x, self.weight, self.bias), backward)

    def fold_scale_shift(self) -> tuple[np.ndarray, np.ndarray]:
        """Return the affine (scale, shift) equivalent of this BN in eval mode.

        Used by analyses that need BN-folded convolution weights (the paper's
        weight-distribution plots are taken on inference graphs).
        """
        scale = self.weight.data / np.sqrt(self.running_var + self.eps)
        shift = self.bias.data - self.running_mean * scale
        return scale, shift


class ReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return F.relu(x)


class MaxPool2d(Module):
    def __init__(self, kernel_size: int = 2, stride: int | None = None):
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride or kernel_size

    def forward(self, x: Tensor) -> Tensor:
        return F.max_pool2d(x, self.kernel_size, self.stride)


class AvgPool2d(Module):
    def __init__(self, kernel_size: int = 2, stride: int | None = None):
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride or kernel_size

    def forward(self, x: Tensor) -> Tensor:
        return F.avg_pool2d(x, self.kernel_size, self.stride)


class GlobalAvgPool2d(Module):
    def forward(self, x: Tensor) -> Tensor:
        return F.global_avg_pool2d(x)


class Flatten(Module):
    def __init__(self, start_dim: int = 1):
        super().__init__()
        self.start_dim = start_dim

    def forward(self, x: Tensor) -> Tensor:
        return x.flatten(self.start_dim)


class Dropout(Module):
    def __init__(self, p: float = 0.5, rng: np.random.Generator | None = None):
        super().__init__()
        self.p = p
        self._rng = rng or np.random.default_rng(0)

    def forward(self, x: Tensor) -> Tensor:
        return F.dropout(x, self.p, training=self.training, rng=self._rng)


class Identity(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x
