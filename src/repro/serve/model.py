"""Whole-model compilation: lower an ``nn.Module`` network into serving steps.

:func:`compile_model` walks a model built from this library's layers and
lowers it into a :class:`CompiledModel` — an immutable sequence of execution
steps, each bound to its cached :class:`~repro.engine.LayerPlan` and
pre-transformed weights, mirroring what the paper's accelerator does at
deployment time: plan every layer once, then stream batches through fixed
pipelines.

What compilation buys over calling the module graph layer by layer:

* **Weight binding** — every Winograd convolution's weights are transformed
  once into the tap-major ``w_r`` layout the fused kernel executes, exactly
  like :class:`~repro.engine.CompiledConv` but for the whole network.
* **BatchNorm folding** — in eval mode a ``Conv2d -> BatchNorm2d`` pair
  collapses into one convolution with rescaled weights and a fused bias,
  deleting the BN pass entirely.
* **ReLU fusion** — a ReLU following a convolution / BN / linear / residual
  add is applied in place on the producer's output buffer.
* **Workspace arena** — every convolution step runs through
  :func:`repro.engine.execute` with the leased
  :class:`~repro.engine.WorkspaceArena`, so its output (and a Winograd
  step's padded input) live in buffers keyed by the step and steady-state
  inference does zero fresh large allocations.  Concurrent ``infer`` calls lease distinct arenas from
  an :class:`~repro.engine.ArenaPool` (in-flight batches never share
  buffers).
* **Quantized layers** — a calibrated :class:`~repro.quant.QuantConv2d`
  lowers to its activation fake-quant step plus an ordinary convolution step
  over its fake-quantized weights, so BN folding and ReLU fusion apply to it
  too; a calibrated :class:`~repro.quant.QuantWinogradConv2d` runs the
  backend's fused fake-quantized forward through the same executor.  Both
  are bit-identical to the eval-mode layer.

The compiled model follows the process-wide kernel backend dynamically: when
:func:`repro.kernels.set_backend` switches backends mid-serve, the shared
plan cache is evicted (PR 2) and each step transparently re-lowers and
re-binds against the new backend on its next call — never returning results
computed with a stale backend.

Modules with data flow the walker cannot see (unknown user modules) become
*opaque* steps that call the module's own eval-mode forward, so compilation
never changes results — only how fast the known structure runs.
"""

from __future__ import annotations

import numpy as np

from .. import engine
from ..engine.arena import ArenaPool, WorkspaceArena
from ..engine.executor import bind_tap_major_weights
from ..kernels import KernelBackend, get_backend
from ..obs import profile as _obs_profile
from ..obs import trace as _obs_trace
from ..nn import layers as L
from ..nn.module import Module, ModuleList, Sequential
from ..nn.tensor import Tensor, no_grad
from ..quant.qconv import QuantConv2d, QuantWinogradConv2d
from ..winograd.transforms import WinogradTransform, get_transform

__all__ = ["CompiledModel", "ModelJob", "compile_model", "register_compiler"]


def _relu_(x: np.ndarray, in_place: bool) -> np.ndarray:
    if in_place:
        return np.maximum(x, 0.0, out=x)
    return np.maximum(x, 0.0)


# --------------------------------------------------------------------------- #
# Steps
# --------------------------------------------------------------------------- #
class _Step:
    """One unit of compiled execution: ``run(x, arena) -> ndarray``.

    ``arena`` is the :class:`~repro.engine.WorkspaceArena` leased for the
    current batch, never ``None``.  A step may return one of its arena
    buffers; :meth:`CompiledModel.infer` copies a final one out.
    """

    fused_relu = False

    def run(self, x: np.ndarray, arena: WorkspaceArena) -> np.ndarray:
        raise NotImplementedError

    def describe(self) -> str:
        return type(self).__name__


class _ConvStep(_Step):
    """A convolution bound to plan + pre-transformed weights, run by
    :func:`repro.engine.execute` in the leased arena (float layers, and the
    fake-quantized weights of a calibrated :class:`~repro.quant.QuantConv2d`).

    ``backend_arg`` of ``None`` means *follow the process-wide backend*: the
    step re-resolves it per call and re-binds its weights whenever the
    effective backend changes (the plan cache was evicted at the same moment,
    so the re-lowering below compiles fresh plans for the new backend).
    """

    def __init__(self, weight: np.ndarray, bias: np.ndarray | None, *,
                 stride: int = 1, padding: int = 0,
                 transform: WinogradTransform | None = None,
                 backend_arg: str | KernelBackend | None = None,
                 relu: bool = False):
        self.weight = np.ascontiguousarray(weight, dtype=np.float64)
        self.bias = None if bias is None else np.asarray(bias, dtype=np.float64)
        self.stride = stride
        self.padding = padding
        self.transform = transform
        self.kind = "winograd" if transform is not None else "im2col"
        self.backend_arg = backend_arg
        self.fused_relu = relu
        self._be: KernelBackend | None = None
        self._w_r = None            # tap-major Winograd weights (w_r=)
        self._profiled_labels: set[str] = set()   # plans seen while profiling

    # -- binding ---------------------------------------------------------- #
    def _backend(self) -> KernelBackend:
        be = get_backend(self.backend_arg)
        if be is not self._be:
            if self.kind == "winograd":
                self._w_r = bind_tap_major_weights(be, self.weight,
                                                   self.transform)
            self._be = be
        return be

    def plan_for(self, in_shape: tuple, be: KernelBackend):
        if self.kind == "winograd":
            return engine.lower_winograd(in_shape, self.weight.shape,
                                         self.transform, self.padding, backend=be)
        return engine.lower_conv2d(in_shape, self.weight.shape, self.stride,
                                   self.padding, backend=be)

    # -- execution -------------------------------------------------------- #
    def run(self, x: np.ndarray, arena: WorkspaceArena) -> np.ndarray:
        plan = self.plan_for(x.shape, self._backend())
        if _obs_profile._ENABLED:
            self._profiled_labels.add(_obs_profile.plan_label(plan))
        out = engine.execute(plan, x, self.weight, self.bias, w_r=self._w_r,
                             arena=arena, slot=self)
        return _relu_(out, in_place=True) if self.fused_relu else out

    def describe(self) -> str:
        tname = self.transform.name if self.transform is not None else "im2col"
        return (f"conv[{tname}] {self.weight.shape} s={self.stride} "
                f"p={self.padding}" + (" +relu" if self.fused_relu else ""))


class _BNStep(_Step):
    """Eval-mode BatchNorm as a per-channel affine ``y = x*scale + shift``."""

    def __init__(self, scale: np.ndarray, shift: np.ndarray, relu: bool = False):
        self.scale = np.asarray(scale, dtype=np.float64).reshape(1, -1, 1, 1)
        self.shift = np.asarray(shift, dtype=np.float64).reshape(1, -1, 1, 1)
        self.fused_relu = relu

    def run(self, x: np.ndarray, arena: WorkspaceArena) -> np.ndarray:
        out = x * self.scale
        out += self.shift
        return _relu_(out, in_place=True) if self.fused_relu else out


class _ReluStep(_Step):
    def run(self, x: np.ndarray, arena: WorkspaceArena) -> np.ndarray:
        return _relu_(x, in_place=arena.owns(x))


def _pool_windows(x: np.ndarray, kernel: int, stride: int) -> np.ndarray:
    n, c, h, w = x.shape
    out_h = (h - kernel) // stride + 1
    out_w = (w - kernel) // stride + 1
    s0, s1, s2, s3 = x.strides
    return np.lib.stride_tricks.as_strided(
        x, shape=(n, c, out_h, out_w, kernel, kernel),
        strides=(s0, s1, s2 * stride, s3 * stride, s2, s3), writeable=False)


class _PoolStep(_Step):
    def __init__(self, kind: str, kernel: int, stride: int):
        self.kind = kind
        self.kernel = kernel
        self.stride = stride

    def run(self, x: np.ndarray, arena: WorkspaceArena) -> np.ndarray:
        windows = _pool_windows(x, self.kernel, self.stride)
        if self.kind == "max":
            return windows.max(axis=(-1, -2))
        return windows.mean(axis=(-1, -2))

    def describe(self) -> str:
        return f"{self.kind}_pool k={self.kernel} s={self.stride}"


class _GlobalAvgPoolStep(_Step):
    def run(self, x: np.ndarray, arena: WorkspaceArena) -> np.ndarray:
        return x.mean(axis=(2, 3))


class _FlattenStep(_Step):
    def __init__(self, start_dim: int = 1):
        self.start_dim = start_dim

    def run(self, x: np.ndarray, arena: WorkspaceArena) -> np.ndarray:
        return np.ascontiguousarray(x).reshape(x.shape[:self.start_dim] + (-1,))


class _LinearStep(_Step):
    def __init__(self, weight: np.ndarray, bias: np.ndarray | None,
                 relu: bool = False):
        self.w_t = np.ascontiguousarray(np.asarray(weight, dtype=np.float64).T)
        self.bias = None if bias is None else np.asarray(bias, dtype=np.float64)
        self.fused_relu = relu

    def run(self, x: np.ndarray, arena: WorkspaceArena) -> np.ndarray:
        out = arena.get(self, "out", shape=(x.shape[0], self.w_t.shape[1]),
                        dtype=np.result_type(x.dtype, self.w_t.dtype))
        np.matmul(x, self.w_t, out=out)
        if self.bias is not None:
            out += self.bias
        return _relu_(out, in_place=True) if self.fused_relu else out

    def describe(self) -> str:
        return f"linear {self.w_t.shape[::-1]}" + (" +relu" if self.fused_relu else "")


class _ResidualStep(_Step):
    """``relu(body(x) + shortcut(x))`` — the BasicBlock of ResNet-CIFAR."""

    def __init__(self, body: list[_Step], shortcut: list[_Step],
                 relu: bool = True):
        self.body = tuple(body)
        self.shortcut = tuple(shortcut)
        self.fused_relu = relu

    def run(self, x: np.ndarray, arena: WorkspaceArena) -> np.ndarray:
        identity = x
        for step in self.shortcut:
            identity = step.run(identity, arena)
        out = x
        for step in self.body:
            out = step.run(out, arena)
        if arena.owns(out):
            out += identity
        else:
            out = out + identity
        return _relu_(out, in_place=True) if self.fused_relu else out

    def describe(self) -> str:
        inner = ", ".join(s.describe() for s in self.body)
        return f"residual[{inner}]"


class _OpaqueStep(_Step):
    """Fallback: run the live module's own forward in eval mode, no grad.

    Used for module types the walker does not understand and for quantized
    layers that have not been calibrated yet (their observers are stateful,
    so a snapshot could not reproduce the eager results).
    """

    def __init__(self, module: Module):
        self.module = module

    def run(self, x: np.ndarray, arena: WorkspaceArena) -> np.ndarray:
        was_training = self.module.training
        if was_training:
            self.module.eval()
        try:
            with no_grad():
                out = self.module(Tensor(x))
        finally:
            if was_training:
                self.module.train()
        return out.data if isinstance(out, Tensor) else np.asarray(out)

    def describe(self) -> str:
        return f"opaque({type(self.module).__name__})"


class _QuantWinogradStep(_Step):
    """Calibrated tap-wise quantized Winograd conv, replayed bit-exactly.

    Binds the spatially fake-quantized weights once (via
    :meth:`QuantWinogradConv2d.bind_inference_weights`) and runs what the
    eval-mode module runs: the activation fake-quant, then the backend's
    fused fake-quantized forward through :func:`repro.engine.execute` with
    the layer's :class:`~repro.kernels.TapFakeQuant`.  The output is
    bit-identical to the module's.
    """

    def __init__(self, layer: QuantWinogradConv2d,
                 backend_arg: str | KernelBackend | None = None):
        self.layer = layer
        self.backend_arg = backend_arg
        self._weight = layer.bind_inference_weights()
        self._quant = layer.tap_fake_quant()

    def run(self, x: np.ndarray, arena: WorkspaceArena) -> np.ndarray:
        layer = self.layer
        if layer.act_quant is not None:
            x = layer.act_quant.fake_quantize_array(x)
        bias = None if layer.bias is None else layer.bias.data
        plan = layer.plan_for(x.shape, get_backend(self.backend_arg))
        return engine.execute(plan, x, self._weight, bias, arena=arena,
                              slot=self, quant=self._quant)

    def describe(self) -> str:
        return (f"qwino[{self.layer.transform.name}] {self.layer.weight.shape} "
                f"bits={self.layer.spatial_bits}/{self.layer.wino_bits}")


class _ActQuantStep(_Step):
    """A quantized layer's eval-mode activation fake-quant, frozen scale."""

    def __init__(self, quantizer):
        self.quantizer = quantizer

    def run(self, x: np.ndarray, arena: WorkspaceArena) -> np.ndarray:
        return self.quantizer.fake_quantize_array(x)

    def describe(self) -> str:
        return f"act_quant bits={self.quantizer.n_bits}"


# --------------------------------------------------------------------------- #
# The walker: module graph -> linear step list
# --------------------------------------------------------------------------- #
_COMPILERS: dict[type, callable] = {}


def register_compiler(module_type: type):
    """Register a structural compiler for a model class.

    The compiler is called as ``fn(module, ctx) -> list_of_modules_or_steps``
    where the returned list is flattened, fused and compiled in order (a
    *linearisation* of the model's forward).  Entries may be sub-modules
    (compiled recursively) or ready :class:`_Step` instances.
    """
    def decorator(fn):
        _COMPILERS[module_type] = fn
        return fn
    return decorator


class _CompileCtx:
    def __init__(self, transform: WinogradTransform | None, backend_arg):
        self.transform = transform
        self.backend_arg = backend_arg


def _conv_transform(conv: L.Conv2d, ctx: _CompileCtx) -> WinogradTransform | None:
    """Winograd for r-matching unit-stride kernels, im2col otherwise."""
    if ctx.transform is None or conv.stride != 1:
        return None
    if conv.kernel_size != ctx.transform.r:
        return None
    return ctx.transform


def _linearize(module: Module, ctx: _CompileCtx) -> list:
    """Flatten a module into the ordered list its forward would execute."""
    if isinstance(module, (Sequential, ModuleList)):
        flat = []
        for child in module:
            flat.extend(_linearize(child, ctx))
        return flat
    compiler = _COMPILERS.get(type(module))
    if compiler is not None:
        flat = []
        for entry in compiler(module, ctx):
            if isinstance(entry, _Step):
                flat.append(entry)
            else:
                flat.extend(_linearize(entry, ctx))
        return flat
    return [module]


def _fold_bn_into_conv(step: _ConvStep, bn: L.BatchNorm2d) -> _ConvStep:
    scale, shift = bn.fold_scale_shift()
    weight = step.weight * scale.reshape(-1, 1, 1, 1)
    bias = shift if step.bias is None else step.bias * scale + shift
    return _ConvStep(weight, bias, stride=step.stride, padding=step.padding,
                     transform=step.transform, backend_arg=step.backend_arg,
                     relu=step.fused_relu)


def _compile_linear_list(entries: list, ctx: _CompileCtx) -> list[_Step]:
    """Peephole-fuse and compile a linearised module list into steps."""
    steps: list[_Step] = []
    for entry in entries:
        if isinstance(entry, L.BatchNorm2d) and steps and \
                isinstance(steps[-1], _ConvStep) and not steps[-1].fused_relu:
            steps[-1] = _fold_bn_into_conv(steps[-1], entry)
            continue
        step = entry if isinstance(entry, _Step) else _compile_leaf(entry, ctx)
        if step is None:                                   # identity / dropout
            continue
        if isinstance(step, _ReluStep) and steps and \
                isinstance(steps[-1], (_ConvStep, _BNStep, _LinearStep,
                                       _ResidualStep)) \
                and not steps[-1].fused_relu:
            steps[-1].fused_relu = True
            continue
        steps.append(step)
    return steps


def _compile_leaf(module: Module, ctx: _CompileCtx) -> _Step | None:
    if isinstance(module, L.Identity):
        return None
    if isinstance(module, L.Dropout):
        return None                                        # eval-mode identity
    if isinstance(module, L.Conv2d):
        bias = None if module.bias is None else module.bias.data
        return _ConvStep(module.weight.data, bias, stride=module.stride,
                         padding=module.padding,
                         transform=_conv_transform(module, ctx),
                         backend_arg=module.backend or ctx.backend_arg)
    if isinstance(module, L.BatchNorm2d):
        scale, shift = module.fold_scale_shift()
        return _BNStep(scale, shift)
    if isinstance(module, L.ReLU):
        return _ReluStep()
    if isinstance(module, L.MaxPool2d):
        return _PoolStep("max", module.kernel_size, module.stride)
    if isinstance(module, L.AvgPool2d):
        return _PoolStep("avg", module.kernel_size, module.stride)
    if isinstance(module, L.GlobalAvgPool2d):
        return _GlobalAvgPoolStep()
    if isinstance(module, L.Flatten):
        return _FlattenStep(module.start_dim)
    if isinstance(module, L.Linear):
        bias = None if module.bias is None else module.bias.data
        return _LinearStep(module.weight.data, bias)
    if isinstance(module, QuantWinogradConv2d) and module.is_calibrated():
        return _QuantWinogradStep(module, module.backend or ctx.backend_arg)
    return _OpaqueStep(module)          # incl. uncalibrated (stateful) layers


@register_compiler(QuantConv2d)
def _compile_quant_conv(layer: QuantConv2d, ctx: _CompileCtx):
    """Activation fake-quant, then a plain im2col conv on the quantized
    weights: bit-identical to the eval-mode layer's ``F.conv2d``."""
    if not layer.is_calibrated():
        return [_OpaqueStep(layer)]
    bias = None if layer.bias is None else layer.bias.data
    return [_ActQuantStep(layer.act_quant),
            _ConvStep(layer.bind_inference_weights(), bias, stride=layer.stride,
                      padding=layer.padding,
                      backend_arg=layer.backend or ctx.backend_arg)]


# Structural compilers for the reference model classes: each returns the
# linearisation of the class's forward() (sub-modules in execution order,
# residual blocks as ready steps).
def _register_model_compilers() -> None:
    from ..models.resnet_cifar import BasicBlock, ResNetCifar
    from ..models.vgg import VGGNagadomi

    @register_compiler(BasicBlock)
    def _compile_basic_block(block: BasicBlock, ctx: _CompileCtx):
        body = _compile_linear_list(
            _linearize(block.conv1, ctx) + _linearize(block.bn1, ctx)
            + [_ReluStep()] + _linearize(block.conv2, ctx)
            + _linearize(block.bn2, ctx), ctx)
        shortcut = _compile_linear_list(_linearize(block.downsample, ctx), ctx)
        return [_ResidualStep(body, shortcut, relu=True)]

    @register_compiler(ResNetCifar)
    def _compile_resnet(model: ResNetCifar, ctx: _CompileCtx):
        return [model.stem, model.stem_bn, model.relu,
                model.stage1, model.stage2, model.stage3,
                model.pool, model.classifier]

    @register_compiler(VGGNagadomi)
    def _compile_vgg(model: VGGNagadomi, ctx: _CompileCtx):
        return [model.features, model.classifier]


_register_model_compilers()


# --------------------------------------------------------------------------- #
# CompiledModel
# --------------------------------------------------------------------------- #
class CompiledModel:
    """An immutable sequence of serving steps lowered from a model.

    Built by :func:`compile_model`; call :meth:`infer` (or the instance) with
    an NCHW batch.  Thread-safe: concurrent calls lease distinct workspace
    arenas from the internal pool.
    """

    def __init__(self, steps: list[_Step]):
        self.steps: tuple[_Step, ...] = tuple(steps)
        self.arena_pool = ArenaPool()

    def infer(self, x: np.ndarray, deadline: float | None = None) -> np.ndarray:
        """Run one batch through the compiled pipeline.

        ``deadline`` is an absolute :func:`time.monotonic` timestamp (the
        serving layer's convention — see :mod:`repro.serve.errors`): the
        pipeline checks it before starting and between steps, raising
        :class:`~repro.serve.RequestTimeout` as soon as the budget is gone
        instead of finishing a result nobody will read.  An aborted call's
        workspace arena is reclaimed by the pool's lease bookkeeping.
        """
        from .errors import RequestTimeout, deadline_clock

        def check_deadline() -> None:
            if deadline is not None and deadline_clock() >= deadline:
                raise RequestTimeout("deadline expired mid-inference",
                                     deadline=deadline, now=deadline_clock())

        check_deadline()
        out = np.asarray(x, dtype=np.float64)
        with _obs_trace.span("model.infer", cat="serve",
                             batch=int(out.shape[0]) if out.ndim else 0):
            with self.arena_pool.lease() as arena:
                for step in self.steps:
                    out = step.run(out, arena)
                    check_deadline()
                if isinstance(out, np.ndarray) and arena.owns(out):
                    out = out.copy()     # never hand out live arena buffers
        return out

    __call__ = infer

    def warmup(self, input_shape: tuple, dtype=np.float64) -> "CompiledModel":
        """Pre-lower plans and pre-allocate arena buffers for one shape."""
        self.infer(np.zeros(input_shape, dtype=dtype))
        return self

    @property
    def workspace_nbytes(self) -> int:
        """Bytes currently held across all leased-out/pooled arenas."""
        return self.arena_pool.nbytes

    def describe(self) -> list[str]:
        """One human-readable line per compiled step."""
        return [step.describe() for step in self.steps]

    def profile(self) -> dict:
        """Kernel-profile report for the plans this model has executed.

        Requires observability (``repro.obs``) to be enabled while batches
        run; returns the process-wide :func:`repro.obs.profile.report`
        filtered to the plans this model's convolution steps used — per
        primitive calls / wall time, attributed to the backend that ran.
        """
        from ..obs import profile as obs_profile
        labels: set[str] = set()
        stack = list(self.steps)
        while stack:
            step = stack.pop()
            labels |= getattr(step, "_profiled_labels", set())
            stack.extend(getattr(step, "body", ()))
            stack.extend(getattr(step, "shortcut", ()))
        report = obs_profile.report()
        return {label: block for label, block in report.items()
                if label in labels}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CompiledModel({len(self.steps)} steps)"


def compile_model(model: Module, input_shape: tuple | None = None, *,
                  transform: WinogradTransform | str | None = "F4",
                  backend: str | KernelBackend | None = None) -> CompiledModel:
    """Lower ``model`` into a :class:`CompiledModel` (eval-mode semantics).

    Parameters
    ----------
    model:
        A network built from :mod:`repro.nn` / :mod:`repro.quant` layers (the
        reference ResNet-CIFAR and VGG classes have structural compilers;
        anything else falls back to opaque per-module execution).
    input_shape:
        Optional NCHW shape used to warm the plan cache and pre-size the
        workspace arena; any batch shape still works at :meth:`infer` time
        (plans re-lower through the shared cache).
    transform:
        Winograd transform for eligible (3x3, unit-stride) convolutions;
        ``None`` keeps every convolution on the im2col path.
    backend:
        Pin the compiled model to one kernel backend; ``None`` (default)
        follows the process-wide selection dynamically — a mid-serve
        ``set_backend`` evicts the plan cache and the steps re-bind.  A
        layer's own ``backend`` still takes precedence.
    """
    if isinstance(transform, str):
        transform = get_transform(transform)
    ctx = _CompileCtx(transform, backend)

    was_training = getattr(model, "training", False)
    model.eval()     # fold_scale_shift & quantized snapshots need eval stats
    try:
        steps = _compile_linear_list(_linearize(model, ctx), ctx)
    finally:
        if was_training:
            model.train()

    compiled = CompiledModel(steps)
    if input_shape is not None:
        compiled.warmup(input_shape)
    return compiled


class ModelJob:
    """Pool job serving a whole network: each worker compiles it once.

    Implements the pool-job protocol of :mod:`repro.serve.pool`, so
    :class:`~repro.engine.BatchRunner` shards it across a supervised
    :class:`~repro.serve.ShmWorkerPool` (or runs it inline) and
    :class:`~repro.serve.Server` serves the runner like any model.
    ``transform`` and ``backend`` go to :func:`compile_model` in each
    worker, resolved against that process's own registries.
    """

    def __init__(self, model: Module,
                 transform: WinogradTransform | str | None = "F4",
                 backend: str | KernelBackend | None = None):
        self.model = model
        self.transform = transform
        self.backend = backend
        self._out_shapes: dict[tuple, tuple] = {}

    def compile(self):
        return compile_model(self.model, transform=self.transform,
                             backend=self.backend).infer

    def out_shape(self, in_shape: tuple) -> tuple:
        """Reply shape for ``in_shape``, from one cached 1-row eval forward
        in the parent per distinct per-sample shape."""
        sample = tuple(in_shape[1:])
        if sample not in self._out_shapes:
            was_training = self.model.training
            self.model.eval()
            try:
                with no_grad():
                    out = self.model(Tensor(np.zeros((1,) + sample)))
            finally:
                if was_training:
                    self.model.train()
            self._out_shapes[sample] = out.shape[1:]
        return (in_shape[0],) + self._out_shapes[sample]

    def out_dtype(self, in_dtype) -> np.dtype:
        return np.dtype(np.float64)
