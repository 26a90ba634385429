"""Functional neural-network operations built on the autograd engine.

The convolution implemented here is the standard *im2col* lowering described
in the paper's baseline accelerator (Section IV-A): the input feature map is
unrolled into a matrix and the convolution becomes a single MatMul.  It is the
reference against which the Winograd convolutions in
:mod:`repro.winograd.conv` are verified (they must agree to numerical
precision in the float case).

The im2col lowering and its three GEMMs (forward, dW, dX) dispatch through
:mod:`repro.kernels`; ``conv2d`` / ``conv2d_numpy`` accept an optional
``backend=`` argument for per-call backend selection.  Both entry points
lower-then-execute through :mod:`repro.engine`: the layer shape is compiled
once into a cached :class:`~repro.engine.LayerPlan` and repeated same-shape
calls execute the interned plan (a fused single-node autograd op in the
``conv2d`` case).
"""

from __future__ import annotations

import numpy as np

from ..kernels import KernelBackend, get_backend
from .tensor import Tensor, as_tensor

__all__ = [
    "im2col",
    "col2im",
    "conv2d",
    "conv2d_numpy",
    "max_pool2d",
    "avg_pool2d",
    "global_avg_pool2d",
    "linear",
    "relu",
    "softmax",
    "log_softmax",
    "cross_entropy",
    "kl_div_with_logits",
    "mse_loss",
    "pad2d",
    "dropout",
    "one_hot",
]


# --------------------------------------------------------------------------- #
# im2col / col2im primitives (dispatch through the kernel registry)
# --------------------------------------------------------------------------- #
def im2col(x: np.ndarray, kernel: tuple[int, int], stride: int = 1,
           padding: int = 0,
           backend: str | KernelBackend | None = None) -> np.ndarray:
    """Unroll sliding windows of ``x`` into columns.

    Dispatches through :mod:`repro.kernels` (this module used to carry its
    own copy of the lowering; the registry is now the single home of both
    implementations, so ``REPRO_KERNEL_BACKEND`` affects every conv entry
    point).

    Parameters
    ----------
    x:
        Input of shape ``(N, C, H, W)``.
    kernel:
        ``(kh, kw)`` spatial kernel size.
    stride:
        Convolution stride (same in both dimensions).
    padding:
        Zero padding applied symmetrically.

    Returns
    -------
    ndarray of shape ``(N, C * kh * kw, out_h * out_w)``.
    """
    return get_backend(backend).im2col(x, kernel, stride, padding)


def col2im(cols: np.ndarray, input_shape: tuple[int, int, int, int],
           kernel: tuple[int, int], stride: int = 1, padding: int = 0,
           backend: str | KernelBackend | None = None) -> np.ndarray:
    """Adjoint of :func:`im2col`: scatter-add columns back into an image."""
    return get_backend(backend).col2im(cols, input_shape, kernel, stride, padding)


def conv2d_numpy(x: np.ndarray, weight: np.ndarray, bias: np.ndarray | None = None,
                 stride: int = 1, padding: int = 0,
                 backend: str | KernelBackend | None = None) -> np.ndarray:
    """Plain numpy im2col convolution (no autograd).  Reference implementation.

    Lowers the layer shape to a cached :class:`~repro.engine.LayerPlan` and
    executes it; repeated calls with the same shape reuse the interned plan.
    """
    from .. import engine

    be = get_backend(backend)
    plan = engine.lower_conv2d(x.shape, weight.shape, stride, padding, backend=be)
    return engine.execute(plan, x, weight, bias)


# --------------------------------------------------------------------------- #
# Differentiable ops
# --------------------------------------------------------------------------- #
def conv2d(x: Tensor, weight: Tensor, bias: Tensor | None = None,
           stride: int = 1, padding: int = 0,
           backend: str | KernelBackend | None = None) -> Tensor:
    """Differentiable 2-D convolution via im2col lowering.

    Shapes follow the usual NCHW / OIHW convention.  ``backend`` selects the
    kernel backend for the forward GEMM and both backward GEMMs of this call.
    The layer shape is lowered once to a cached plan and executed as a single
    fused autograd node.
    """
    from .. import engine

    be = get_backend(backend)
    x = as_tensor(x)
    weight = as_tensor(weight)
    cin, cin_w = x.shape[1], weight.shape[1]
    if cin != cin_w:
        raise ValueError(f"channel mismatch: input has {cin}, weight expects {cin_w}")

    plan = engine.lower_conv2d(x.shape, weight.shape, stride, padding, backend=be)
    return engine.execute_tensor(plan, x, weight, bias)


def pad2d(x: Tensor, padding: int) -> Tensor:
    """Zero-pad the two trailing spatial dimensions."""
    if padding == 0:
        return x
    return x.pad(((0, 0), (0, 0), (padding, padding), (padding, padding)))


def max_pool2d(x: Tensor, kernel: int = 2, stride: int | None = None) -> Tensor:
    """Max pooling over non-overlapping (or strided) windows."""
    stride = stride or kernel
    x = as_tensor(x)
    x_shape = n, c, h, w = x.shape
    out_h = (h - kernel) // stride + 1
    out_w = (w - kernel) // stride + 1
    s0, s1, s2, s3 = x.data.strides
    windows = np.lib.stride_tricks.as_strided(
        x.data,
        shape=(n, c, out_h, out_w, kernel, kernel),
        strides=(s0, s1, s2 * stride, s3 * stride, s2, s3),
        writeable=False,
    )
    flat = windows.reshape(n, c, out_h, out_w, kernel * kernel)
    argmax = flat.argmax(axis=-1)
    out_data = np.take_along_axis(flat, argmax[..., None], axis=-1)[..., 0]

    def _backward(grad: np.ndarray):
        dx = np.zeros(x_shape, dtype=np.float64)
        ky, kx = np.unravel_index(argmax, (kernel, kernel))
        n_idx, c_idx, oh_idx, ow_idx = np.indices((n, c, out_h, out_w))
        rows = oh_idx * stride + ky
        cols_ = ow_idx * stride + kx
        np.add.at(dx, (n_idx, c_idx, rows, cols_), grad)
        return (dx,)

    return Tensor.from_op(out_data, (x,), _backward)


def avg_pool2d(x: Tensor, kernel: int = 2, stride: int | None = None) -> Tensor:
    """Average pooling."""
    stride = stride or kernel
    x = as_tensor(x)
    x_shape = n, c, h, w = x.shape
    out_h = (h - kernel) // stride + 1
    out_w = (w - kernel) // stride + 1
    s0, s1, s2, s3 = x.data.strides
    windows = np.lib.stride_tricks.as_strided(
        x.data,
        shape=(n, c, out_h, out_w, kernel, kernel),
        strides=(s0, s1, s2 * stride, s3 * stride, s2, s3),
        writeable=False,
    )
    out_data = windows.mean(axis=(-1, -2))

    def _backward(grad: np.ndarray):
        dx = np.zeros(x_shape, dtype=np.float64)
        scale = 1.0 / (kernel * kernel)
        for i in range(kernel):
            for j in range(kernel):
                dx[:, :, i:i + out_h * stride:stride, j:j + out_w * stride:stride] += grad * scale
        return (dx,)

    return Tensor.from_op(out_data, (x,), _backward)


def global_avg_pool2d(x: Tensor) -> Tensor:
    """Average over the full spatial extent, returning ``(N, C)``."""
    return x.mean(axis=(2, 3))


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """Affine transform ``x @ weight.T + bias``."""
    out = x @ weight.T
    if bias is not None:
        out = out + bias
    return out


def relu(x: Tensor) -> Tensor:
    return as_tensor(x).relu()


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    x = as_tensor(x)
    shifted = x - x.max(axis=axis, keepdims=True).detach()
    exp = shifted.exp()
    return exp / exp.sum(axis=axis, keepdims=True)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    x = as_tensor(x)
    shifted = x - x.max(axis=axis, keepdims=True).detach()
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """Return a one-hot encoding as a plain ndarray."""
    labels = np.asarray(labels, dtype=np.int64)
    out = np.zeros((labels.shape[0], num_classes), dtype=np.float64)
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean cross-entropy between logits and integer labels."""
    logits = as_tensor(logits)
    num_classes = logits.shape[-1]
    targets = one_hot(labels, num_classes)
    logp = log_softmax(logits, axis=-1)
    loss = -(Tensor(targets) * logp).sum(axis=-1).mean()
    return loss


def kl_div_with_logits(student_logits: Tensor, teacher_logits: Tensor,
                       temperature: float = 1.0) -> Tensor:
    """Kullback-Leibler divergence between tempered softmax distributions.

    This is the knowledge-distillation loss of Hinton et al. used by the
    paper's training flow (Section III-B).  The teacher distribution is
    treated as a constant (detached).
    """
    t = float(temperature)
    student = log_softmax(student_logits / t, axis=-1)
    teacher = softmax(as_tensor(teacher_logits).detach() / t, axis=-1)
    teacher_log = log_softmax(as_tensor(teacher_logits).detach() / t, axis=-1)
    kl = (teacher * (teacher_log - student)).sum(axis=-1).mean()
    return kl * (t * t)


def mse_loss(pred: Tensor, target: Tensor) -> Tensor:
    pred = as_tensor(pred)
    target = as_tensor(target).detach()
    diff = pred - target
    return (diff * diff).mean()


def dropout(x: Tensor, p: float = 0.5, training: bool = True,
            rng: np.random.Generator | None = None) -> Tensor:
    """Inverted dropout."""
    if not training or p <= 0.0:
        return as_tensor(x)
    rng = rng or np.random.default_rng()
    x = as_tensor(x)
    mask = (rng.random(x.shape) >= p).astype(np.float64) / (1.0 - p)

    def _backward(grad):
        return (grad * mask,)

    return Tensor.from_op(x.data * mask, (x,), _backward)
