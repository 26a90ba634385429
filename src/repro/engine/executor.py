"""Executor: run compiled LayerPlans, with a fused forward+backward fast path.

Three execution styles, all driven by the immutable plans of
:mod:`repro.engine.plan` and all calling the backend's fused Winograd entry
points (``winograd_forward`` / ``winograd_autograd``), which every
:class:`~repro.kernels.KernelBackend` implements:

* :func:`execute` — the one forward-only executor (no autograd), for both
  plan kinds: the inference entry points
  (:func:`repro.winograd.conv.winograd_conv2d`,
  :func:`repro.nn.functional.conv2d_numpy`), every convolution step of a
  compiled serving model (which passes its leased workspace arena, so
  steady-state calls allocate nothing large), and the integer tap-wise path
  (:func:`repro.quant.integer_winograd_conv2d`, which passes ``quant=``).
  Every call opens one ``layer_span`` and, when profiling, runs through the
  plan's profiled backend.

* :func:`execute_tensor` — the **fused autograd path**: the whole
  convolution is a *single* autograd node.  The forward runs the backend's
  fused whole-layer kernel (tap-major on the ``fast`` backend) without
  materialising any Winograd-domain intermediate as a graph node; the
  backward closure the kernel returns applies the adjoint pipeline directly.
  With a :class:`~repro.kernels.TapFakeQuant` (the tap-wise QAT layer) the
  Winograd-domain fake quantization, its STE and the learned-scale
  gradients run inside the same node.  Compared with a composed graph (five
  autograd nodes plus two per quantizer, every intermediate kept alive and
  copied contiguously) this does strictly less Python/graph work.

* :class:`CompiledConv` — a layer with its weights *bound*: the Winograd
  weight transform is done once at bind time, and every subsequent call
  just lowers the input shape through the shared plan cache (a hit after the
  first call) and runs :func:`execute`.
"""

from __future__ import annotations

import numpy as np

from ..kernels import KernelBackend, get_backend
from ..nn.tensor import Tensor, as_tensor, is_grad_enabled
from ..obs import profile as _obs_profile
from ..obs import trace as _obs_trace
from ..winograd.transforms import WinogradTransform, get_transform
from .arena import current_arena
from .plan import LayerPlan, lower_conv2d, lower_winograd

__all__ = ["CompiledConv", "execute", "execute_tensor"]


def _plan_backend(plan: LayerPlan) -> KernelBackend:
    """The backend to execute ``plan`` with.

    Normally just ``plan.backend``; with :mod:`repro.obs.profile` enabled
    it is the same backend with every primitive wrapped to attribute wall
    time to this plan.  Disabled cost: one module-flag check.
    """
    if _obs_profile._ENABLED:
        return _obs_profile.backend_for(plan)
    return plan.backend


def layer_span(plan: LayerPlan, phase: str = "conv"):
    """Trace span for one layer execution (no-op when tracing is off)."""
    if not _obs_trace._ENABLED:
        return _obs_trace.NULL
    t = plan.transform
    return _obs_trace.span(
        f"{phase}:{'F%dx%d' % (t.m, t.r) if t is not None else 'im2col'}",
        cat="kernel", kind=plan.kind, in_shape=str(plan.in_shape),
        weight=str(plan.weight_shape), backend=plan.backend.name)


# --------------------------------------------------------------------------- #
# Shared numpy helpers
# --------------------------------------------------------------------------- #
def _pad_input_workspace(plan: LayerPlan, x: np.ndarray, arena=None,
                         slot=None) -> np.ndarray:
    """Padded input, in a reusable ``(slot, "padded")`` buffer of ``arena``.

    Serving steps pass their leased arena and training loops the ambient one
    (:func:`repro.engine.use_arena`); the padded copy — the one large
    per-call allocation in front of the fused kernels — then lives in a
    buffer that is reused every call.  Only the halo is zeroed (the interior
    is overwritten).  Without an arena the copy goes into a fresh zeroed
    buffer, which is cheaper than ``np.pad``.  Works for both plan kinds:
    im2col plans carry no ``pad_width`` spec, so the symmetric one is
    derived from ``padding``.
    """
    pad_width = plan.pad_width
    if pad_width is None and plan.padding:
        p = plan.padding
        pad_width = ((0, 0), (0, 0), (p, p), (p, p))
    if pad_width is None or not any(p for pair in pad_width for p in pair):
        return x
    (_, _), (_, _), (pt, pb), (pl, pr) = pad_width
    n, c, h, w = x.shape
    shape = (n, c, pt + h + pb, pl + w + pr)
    if arena is None:
        padded = np.zeros(shape, dtype=x.dtype)
    else:
        padded = arena.get(plan, "padded", shape=shape, dtype=x.dtype,
                           slot=slot)
        if pt:
            padded[:, :, :pt].fill(0)
        if pb:
            padded[:, :, pt + h:].fill(0)
        if pl:
            padded[:, :, pt:pt + h, :pl].fill(0)
        if pr:
            padded[:, :, pt:pt + h, pl + w:].fill(0)
    padded[:, :, pt:pt + h, pl:pl + w] = x
    return padded


def bind_tap_major_weights(be: KernelBackend, weight: np.ndarray,
                           transform: WinogradTransform) -> np.ndarray:
    """``G f GT`` in the tap-major ``(a², Cout, Cin)`` layout of ``w_r=``.

    Bound layers (:class:`CompiledConv`, the serving conv steps) transform
    their weights once with this and pass the result as ``w_r`` to every
    ``winograd_forward`` call.
    """
    a = transform.alpha
    cout, cin = weight.shape[0], weight.shape[1]
    weight_wino = be.apply_transform_pair(weight, transform.G, transform.G.T)
    return np.ascontiguousarray(weight_wino.transpose(2, 3, 0, 1)
                                ).reshape(a * a, cout, cin)


# --------------------------------------------------------------------------- #
# Plain numpy execution
# --------------------------------------------------------------------------- #
def execute(plan: LayerPlan, x: np.ndarray, weight: np.ndarray,
            bias: np.ndarray | None = None, *, w_r: np.ndarray | None = None,
            arena=None, slot=None, quant=None, stats: dict | None = None
            ) -> np.ndarray:
    """Forward-only execution of ``plan`` on plain numpy arrays.

    ``w_r`` optionally supplies Winograd weights already in the tap-major
    layout (:func:`bind_tap_major_weights`), so bound layers skip the
    weight transform.  With a :class:`~repro.engine.WorkspaceArena` the
    Winograd padded input, the kernel output and the cropped result live in
    ``(slot, stage)`` buffers of ``arena`` that are reused every call (the
    result is then an arena buffer, valid until the next call with the same
    ``slot``).  ``quant``/``stats`` are passed to the Winograd kernel for
    the integer tap-wise path (a :class:`~repro.kernels.TapRequant` spec and
    the dict it fills).  The bias is added in place.
    """
    be, cout = _plan_backend(plan), plan.weight_shape[0]
    with layer_span(plan):
        if plan.kind == "winograd":
            out = _winograd_execute(plan, be, x, weight, w_r, arena, slot,
                                    quant, stats)
        else:
            # im2col pads inside its window copy, which is transient; an
            # arena-held padded input would only add a persistent buffer.
            kh, kw = plan.weight_shape[2], plan.weight_shape[3]
            cols = be.im2col(x, (kh, kw), plan.stride, plan.padding)
            gemm_out = None if arena is None else arena.get(
                plan, "gemm_out", shape=(x.shape[0], cout,
                                         plan.out_h * plan.out_w), slot=slot)
            out = be.conv2d_gemm(weight.reshape(cout, -1), cols, out=gemm_out
                                 ).reshape(plan.out_shape)
        if bias is not None:
            out += bias.reshape(1, cout, 1, 1)
    return out


def _winograd_execute(plan: LayerPlan, be: KernelBackend, x: np.ndarray,
                      weight: np.ndarray, w_r, arena, slot, quant,
                      stats) -> np.ndarray:
    t = plan.transform
    padded = _pad_input_workspace(plan, x, arena, slot)
    kwargs = {"w_r": w_r}
    if quant is not None:            # float calls keep the plain signature
        kwargs.update(quant=quant, stats=stats)
    if arena is None:
        return be.winograd_forward(padded, weight, t, plan.out_h, plan.out_w,
                                   **kwargs)
    # Ask the kernel for the uncropped output so it writes straight into the
    # arena buffer; crop into a second buffer when the tiles overhang.
    full_h, full_w = plan.n_h * t.m, plan.n_w * t.m
    full = arena.get(plan, "out_full", slot=slot,
                     shape=(plan.in_shape[0], plan.weight_shape[0], full_h, full_w))
    full = be.winograd_forward(padded, weight, t, full_h, full_w, out=full,
                               **kwargs)
    if (full_h, full_w) == (plan.out_h, plan.out_w):
        return full
    out = arena.get(plan, "out", shape=plan.out_shape, slot=slot)
    np.copyto(out, full[:, :, :plan.out_h, :plan.out_w])
    return out


# --------------------------------------------------------------------------- #
# Fused autograd execution
# --------------------------------------------------------------------------- #
def _winograd_tensor(plan: LayerPlan, x: Tensor, weight: Tensor,
                     bias: Tensor | None, quant) -> Tensor:
    be, t = _plan_backend(plan), plan.transform
    parents = (x, weight) if bias is None else (x, weight, bias)
    learned = ()
    if quant is not None:
        learned = tuple(p for p in (quant.input_log2_t, quant.weight_log2_t)
                        if p is not None)
    needs_grad = is_grad_enabled() and any(
        p.requires_grad for p in parents + learned)
    padded = _pad_input_workspace(plan, x.data, current_arena(), slot=weight)
    kwargs = {} if quant is None else {"quant": quant}

    if not needs_grad:
        # Inference: the backend's fused forward kernel, no graph at all.
        out_data = be.winograd_forward(padded, weight.data, t, plan.out_h,
                                       plan.out_w, **kwargs)
        backward = None
    else:
        # Fused training step: forward + both adjoints (and, with ``quant``,
        # the fake-quant STE and the learned-scale gradients) stay in the
        # backend's internal layout.
        out_data, kernel_backward = be.winograd_autograd(
            padded, weight.data, t, plan.out_h, plan.out_w, **kwargs)
        h, w, p = plan.in_shape[2], plan.in_shape[3], plan.padding

        def backward(grad: np.ndarray):
            dpadded, dw, *dlog2 = kernel_backward(grad)
            grads = (dpadded[:, :, p:p + h, p:p + w], dw)
            if bias is not None:
                grads += (grad.sum(axis=(0, 2, 3)),)
            if dlog2:
                grads += tuple(d for d, log2_t in zip(
                    dlog2, (quant.input_log2_t, quant.weight_log2_t))
                    if log2_t is not None)
            return grads

    if bias is not None:
        out_data = out_data + bias.data.reshape(1, -1, 1, 1)
    return Tensor.from_op(out_data, parents + learned, backward)


def _im2col_tensor(plan: LayerPlan, x: Tensor, weight: Tensor,
                   bias: Tensor | None) -> Tensor:
    be = _plan_backend(plan)
    cout = plan.weight_shape[0]
    w2d = weight.data.reshape(cout, -1)
    # Pre-pad through the ambient arena (when one is installed) so the
    # backend sees an already-padded input; the column values — and hence
    # the forward/backward results — are bit-identical either way.
    padded = _pad_input_workspace(plan, x.data, current_arena(), slot=weight)
    kh, kw = plan.weight_shape[2], plan.weight_shape[3]
    cols = be.im2col(padded, (kh, kw), plan.stride,
                     plan.padding if padded is x.data else 0)
    out_data = be.conv2d_gemm(w2d, cols).reshape(plan.out_shape)
    if bias is not None:
        out_data = out_data + bias.data.reshape(1, cout, 1, 1)

    parents = (x, weight) if bias is None else (x, weight, bias)
    n = plan.in_shape[0]
    kernel = (plan.weight_shape[2], plan.weight_shape[3])

    def _backward(grad: np.ndarray):
        grad2d = grad.reshape(n, cout, plan.out_h * plan.out_w)
        dw = be.conv2d_gemm_dw(grad2d, cols).reshape(plan.weight_shape)
        dcols = be.conv2d_gemm_dcols(w2d, grad2d)
        dx = be.col2im(dcols, plan.in_shape, kernel, plan.stride, plan.padding)
        if bias is None:
            return (dx, dw)
        return (dx, dw, grad.sum(axis=(0, 2, 3)))

    return Tensor.from_op(out_data, parents, _backward)


def execute_tensor(plan: LayerPlan, x, weight, bias=None, *,
                   quant=None) -> Tensor:
    """Differentiable execution of ``plan`` as a single fused autograd node.

    ``quant``, a :class:`~repro.kernels.TapFakeQuant` (Winograd plans only),
    fake-quantizes the Winograd-domain taps inside the node; its learned
    ``log2 t`` parameters become parents of the node and receive the
    Eq. (3) gradient.
    """
    x = as_tensor(x)
    weight = as_tensor(weight)
    if bias is not None:
        bias = as_tensor(bias)
    with layer_span(plan, "conv_autograd"):
        if plan.kind == "winograd":
            return _winograd_tensor(plan, x, weight, bias, quant)
        if quant is not None:
            raise ValueError("quant= needs a Winograd plan")
        return _im2col_tensor(plan, x, weight, bias)


# --------------------------------------------------------------------------- #
# Bound layers
# --------------------------------------------------------------------------- #
class CompiledConv:
    """A convolution with its weights bound to a reusable execution plan.

    The expensive per-layer preparation — resolving the backend and
    transforming Winograd weights into the fused kernel's tap-major layout —
    happens once in the constructor.  Calls then lower the input *shape*
    through the shared plan cache (an interned hit after the first call) and
    execute, so a stream of same-shape batches never re-plans and never
    re-transforms weights.

    ``transform=None`` selects the im2col kind; a transform name or instance
    selects Winograd (unit stride).
    """

    def __init__(self, weight: np.ndarray, bias: np.ndarray | None = None, *,
                 stride: int = 1, padding: int = 0,
                 transform: WinogradTransform | str | None = None,
                 backend: str | KernelBackend | None = None):
        self.weight = np.ascontiguousarray(weight)
        self.bias = None if bias is None else np.asarray(bias)
        self.stride = stride
        self.padding = padding
        self.backend = get_backend(backend)
        if isinstance(transform, str):
            transform = get_transform(transform)
        self.transform = transform
        self.kind = "im2col" if transform is None else "winograd"
        if self.kind == "winograd" and stride != 1:
            raise ValueError("Winograd plans support unit stride only")
        self._w_r = self._bind_weights()

    def _bind_weights(self) -> np.ndarray | None:
        """The ``w_r=`` every call passes: tap-major Winograd weights."""
        if self.transform is None:
            return None
        return bind_tap_major_weights(self.backend, self.weight, self.transform)

    def plan_for(self, in_shape: tuple) -> LayerPlan:
        """The (cached) plan this layer uses for inputs of ``in_shape``."""
        if self.kind == "winograd":
            return lower_winograd(in_shape, self.weight.shape, self.transform,
                                  self.padding, backend=self.backend)
        return lower_conv2d(in_shape, self.weight.shape, self.stride,
                            self.padding, backend=self.backend)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x)
        return execute(self.plan_for(x.shape), x, self.weight, self.bias,
                       w_r=self._w_r)
