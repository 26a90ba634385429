"""Kernel backend registry and dispatch.

Every numerically heavy primitive a workload calls (the Winograd pair
transform that binds weights, the im2col lowering and its GEMMs, and the
fused whole-layer Winograd forward and training step) is routed through a
:class:`KernelBackend`.  Every backend implements every member with one call
contract, so callers never probe what a backend supports.  Two backends are
registered by :mod:`repro.kernels`:

* ``"reference"`` — the seed implementation (generic ``np.einsum`` plus
  Python loops), kept verbatim so the other backends can be
  equivalence-tested against it forever; its fused entry points are composed
  from the seed's staged primitives (tile extraction, tap contraction,
  scatter-add), which stay module functions of :mod:`repro.kernels.reference`
  and are not backend members.
* ``"fast"`` — batched-GEMM formulations that reach BLAS (the default).

Selection, in decreasing precedence:

1. a per-call ``backend=`` argument on the public entry points
   (:func:`repro.winograd.conv.winograd_conv2d`, :func:`repro.nn.functional.conv2d`,
   :func:`repro.quant.integer.integer_winograd_conv2d`, ...);
2. a process-wide :func:`set_backend` / :func:`use_backend` override;
3. the ``REPRO_KERNEL_BACKEND`` environment variable;
4. the built-in default, ``"fast"``.

The choice is resolved when a plan is lowered or a layer is bound (a
:class:`~repro.engine.CompiledConv`, each step of a compiled model), and the
plan or layer keeps the resolved instance: a later process-wide switch only
affects what is lowered or bound after it.
"""

from __future__ import annotations

import contextlib
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "KernelBackend",
    "TapFakeQuant",
    "TapRequant",
    "UnknownBackendError",
    "register_backend",
    "available_backends",
    "get_backend",
    "set_backend",
    "reset_backend",
    "use_backend",
    "ENV_VAR",
    "DEFAULT_BACKEND",
]

ENV_VAR = "REPRO_KERNEL_BACKEND"
DEFAULT_BACKEND = "fast"


class UnknownBackendError(KeyError):
    """A backend name that is not in the registry.

    Raised at the dispatch entry point (``backend=`` argument, ``set_backend``,
    or the first resolution of ``REPRO_KERNEL_BACKEND``) so the caller sees the
    bad name and the list of registered backends immediately, instead of an
    attribute error deep inside a kernel.
    """

    def __init__(self, name: str, source: str):
        self.backend_name = name
        self.source = source
        super().__init__(
            f"unknown kernel backend {name!r} (from {source}); "
            f"registered backends: {available_backends()}")

    def __str__(self) -> str:  # KeyError would repr() the message
        return self.args[0]


@dataclass(frozen=True)
class TapRequant:
    """Tap-wise requantization of the integer Winograd forward.

    ``in_ratio = S_act / S_B`` maps the integer ``BT x B`` taps onto the
    ``[qmin, qmax]`` grid (``rint`` then ``clip``); ``out_scale = S_BG``
    rescales the integer accumulator before ``AT y A``.  Both are
    ``(alpha, alpha)`` arrays.
    """

    in_ratio: np.ndarray
    qmin: int
    qmax: int
    out_scale: np.ndarray


@dataclass(frozen=True)
class TapFakeQuant:
    """Tap-wise fake quantization inside the float Winograd training step.

    Winograd-aware training (Sec. III-A) quantize-dequantizes the ``BT x B``
    input taps and the ``G f GT`` weight taps between the transforms and the
    tap contraction (Eq. 2, clipped straight-through gradients).  Per side:

    * ``*_bits`` — the signed bit width of the side's grid;
    * ``*_scale(values)`` — called once per forward with the side's
      Winograd-domain values, laid out ``(N, Cin, nH, nW, a, a)`` (input) or
      ``(Cout, Cin, a, a)`` (weight), possibly as a read-only view.  It may
      observe them (a calibration observer reduces them to its own
      granularity) and returns the scale broadcastable against them, or
      ``None`` to leave that side unquantized;
    * ``*_log2_t`` — the side's learned ``log2 t`` parameter when its scale is
      the learned ``2^⌈log2 t⌉``, else ``None``.  Kernels only test it
      against ``None``: the backward then also returns the Eq. (3) gradient
      w.r.t. ``log2 t``, summed to the scale's shape, and the engine's
      autograd node routes it to the parameter.
    """

    input_bits: int
    weight_bits: int
    input_scale: Callable
    weight_scale: Callable
    input_log2_t: object = None
    weight_log2_t: object = None


@dataclass(frozen=True)
class KernelBackend:
    """Bundle of kernel primitives sharing one implementation strategy.

    All members are plain functions over numpy arrays (no autograd); the
    autograd layer wires them into forward/backward closures.  Integer inputs
    must be handled exactly, so every member is dtype-preserving -- except
    ``winograd_forward(quant=TapRequant(...))``, which models the
    accelerator's integer Cube Unit: it takes integer operands and returns
    the rescaled float64 output.
    """

    name: str

    # Pair transform ``left @ t @ right`` over the trailing (rows, cols) axes,
    # broadcast over all leading axes; binds ``G f GT`` weights
    # (``engine.bind_tap_major_weights``).
    apply_transform_pair: Callable

    # im2col lowering and its GEMMs.
    im2col: Callable
    col2im: Callable
    conv2d_gemm: Callable          # (O,K) x (N,K,P)   -> (N,O,P), out=
    conv2d_gemm_dw: Callable       # (N,O,P) x (N,K,P) -> (O,K)
    conv2d_gemm_dcols: Callable    # (O,K) x (N,O,P)   -> (N,K,P)

    # Fused Winograd forward on the padded input, without bias:
    # ``winograd_forward(x_padded, weight, transform, out_h, out_w, w_r=None,
    # out=None, quant=None, stats=None)``.  ``w_r`` supplies the transformed
    # weights in the tap-major ``(a², Cout, Cin)`` layout (bit-identical to
    # passing none); ``out`` the uncropped ``(N, Cout, n_h*m, n_w*m)`` output
    # buffer, which is filled and returned when ``(out_h, out_w)`` is its full
    # size.  With a :class:`TapRequant` ``quant``, ``x_padded`` holds integers,
    # ``w_r`` (required) the integer-valued requantized weights, and the
    # integer ``BT x B`` taps are requantized, contracted exactly and rescaled
    # by ``quant.out_scale`` before ``AT y A``; the output is float64.
    # ``stats``, a dict, then receives the integer maxima
    # ``input_tile_int_max`` (``|BT x B|``), ``accumulator_int_max`` and
    # ``input_q_max`` (the requantized taps).  The transform's ``BT`` must be
    # integral and every accumulator below 2**53;
    # ``quant.integer_winograd_conv2d`` checks both.  With a :class:`TapFakeQuant`
    # ``quant`` the float forward fake-quantizes both tap sides (``w_r``
    # then stands for the transformed weights the weight side quantizes);
    # it is the forward of ``winograd_autograd(quant=...)``, bit for bit.
    winograd_forward: Callable

    # Fused Winograd forward+backward for training: called as
    # ``out, backward = winograd_autograd(x_padded, weight, transform,
    # out_h, out_w, quant=None)`` where ``backward(grad) -> (dx_padded,
    # dweight)``; with a :class:`TapFakeQuant` ``quant`` it returns
    # ``(dx_padded, dweight, dlog2_t_input, dlog2_t_weight)``, the last two
    # ``None`` for a side without a learned scale.  Lets a backend keep the
    # whole autograd step in its internal layout (the fast backend stays
    # tap-major end to end).
    winograd_autograd: Callable

    def primitives(self) -> list[str]:
        """Names of the primitive members (every field but ``name``)."""
        from dataclasses import fields
        return [f.name for f in fields(self) if f.name != "name"]

    def instrumented(self, wrap: Callable[[str, Callable], Callable]
                     ) -> "KernelBackend":
        """A copy of this backend with every primitive passed through ``wrap``.

        ``wrap(primitive_name, fn)`` must return a callable that accepts
        ``fn``'s arguments; it need not expose ``fn``'s signature, since no
        caller inspects it.  This is the dispatch-path seam
        :mod:`repro.obs.profile` uses to attribute per-primitive wall time to
        a plan without the executor knowing anything about profiling.
        """
        from dataclasses import replace
        return replace(self, **{name: wrap(name, getattr(self, name))
                                for name in self.primitives()})

    def __repr__(self) -> str:  # pragma: no cover
        return f"KernelBackend({self.name!r})"


_BACKENDS: dict[str, KernelBackend] = {}
_ACTIVE: KernelBackend | None = None


def register_backend(backend: KernelBackend) -> KernelBackend:
    """Add ``backend`` to the registry (last registration wins on name clash)."""
    _BACKENDS[backend.name.lower()] = backend
    return backend


def available_backends() -> list[str]:
    """Names of all registered backends, sorted."""
    return sorted(_BACKENDS)


def _lookup(name: str, source: str = "the backend= argument") -> KernelBackend:
    key = name.strip().lower()
    if key not in _BACKENDS:
        raise UnknownBackendError(name, source)
    return _BACKENDS[key]


def _resolve_default() -> KernelBackend:
    name = os.environ.get(ENV_VAR, "").strip()
    if name:
        return _lookup(name, source=f"the {ENV_VAR} environment variable")
    return _lookup(DEFAULT_BACKEND, source="the built-in default")


def _current() -> KernelBackend:
    """The effective process-wide backend, resolving the env var on first use."""
    global _ACTIVE
    if _ACTIVE is None:
        _ACTIVE = _resolve_default()
    return _ACTIVE


def get_backend(backend: str | KernelBackend | None = None) -> KernelBackend:
    """Resolve ``backend`` to a :class:`KernelBackend` instance.

    ``None`` returns the process-wide active backend (resolving the
    ``REPRO_KERNEL_BACKEND`` environment variable on first use); a string is
    looked up in the registry; an instance is returned unchanged.  This is the
    single dispatch point every per-call ``backend=`` argument funnels into.
    """
    if backend is None:
        return _current()
    if isinstance(backend, KernelBackend):
        return backend
    return _lookup(backend)


def set_backend(backend: str | KernelBackend) -> KernelBackend:
    """Set the process-wide active backend; returns the resolved instance.

    Fails fast with :class:`UnknownBackendError` on an unregistered name.
    Only later resolutions see the switch: a bound layer or compiled model
    keeps the backend it resolved when it was built.
    """
    global _ACTIVE
    _ACTIVE = get_backend(backend)
    return _ACTIVE


def reset_backend() -> None:
    """Drop any override so the next :func:`get_backend` re-reads the env var."""
    global _ACTIVE
    _ACTIVE = None


@contextlib.contextmanager
def use_backend(backend: str | KernelBackend):
    """Context manager that temporarily switches the active backend."""
    global _ACTIVE
    prev = _ACTIVE
    _ACTIVE = get_backend(backend)
    try:
        yield _ACTIVE
    finally:
        _ACTIVE = prev
