"""Kernel backend registry and dispatch.

Every numerically heavy primitive of the library (the tap-wise contraction,
the Winograd pair transforms, tile extraction/scattering, the im2col GEMMs
and the fused whole-layer Winograd forward and training step) is routed
through a :class:`KernelBackend`.  Every backend implements every member with
one call contract, so callers never probe what a backend supports.  Two
backends are registered by :mod:`repro.kernels`:

* ``"reference"`` — the seed implementation (generic ``np.einsum`` plus
  Python loops), kept verbatim so the other backends can be
  equivalence-tested against it forever; its fused entry points are composed
  from those primitives.
* ``"fast"`` — batched-GEMM formulations that reach BLAS (the default).

Selection, in decreasing precedence:

1. a per-call ``backend=`` argument on the public entry points
   (:func:`repro.winograd.conv.winograd_conv2d`, :func:`repro.nn.functional.conv2d`,
   :func:`repro.quant.integer.integer_winograd_conv2d`, ...);
2. a process-wide :func:`set_backend` / :func:`use_backend` override;
3. the ``REPRO_KERNEL_BACKEND`` environment variable;
4. the built-in default, ``"fast"``.
"""

from __future__ import annotations

import contextlib
import os
from dataclasses import dataclass
from typing import Callable

__all__ = [
    "KernelBackend",
    "UnknownBackendError",
    "register_backend",
    "available_backends",
    "get_backend",
    "set_backend",
    "reset_backend",
    "use_backend",
    "add_backend_listener",
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
class KernelBackend:
    """Bundle of kernel primitives sharing one implementation strategy.

    All members are plain functions over numpy arrays (no autograd); the
    autograd layer wires them into forward/backward closures.  Integer inputs
    must be handled exactly (the tap contraction models the accelerator's
    integer Cube Unit), so every member is dtype-preserving.
    """

    name: str

    # Winograd tap-wise contraction (N,Cin,nH,nW,a,a) x (Cout,Cin,a,a)
    # -> (N,Cout,nH,nW,a,a), plus its two adjoints.
    tile_contract: Callable
    tile_contract_dx: Callable
    tile_contract_dw: Callable

    # Pair transform ``left @ t @ right`` over the trailing (rows, cols) axes,
    # broadcast over all leading axes (used for BT x B, G f GT, AT y A).
    apply_transform_pair: Callable

    # Tiling primitives.
    extract_tiles: Callable
    scatter_tiles_add: Callable

    # im2col lowering and its GEMMs.
    im2col: Callable
    col2im: Callable
    conv2d_gemm: Callable          # (O,K) x (N,K,P)   -> (N,O,P), out=
    conv2d_gemm_dw: Callable       # (N,O,P) x (N,K,P) -> (O,K)
    conv2d_gemm_dcols: Callable    # (O,K) x (N,O,P)   -> (N,K,P)

    # Fused Winograd forward on the padded input, without bias:
    # ``winograd_forward(x_padded, weight, transform, out_h, out_w, w_r=None,
    # out=None)``.  ``w_r`` supplies the transformed weights in the tap-major
    # ``(a², Cout, Cin)`` layout (bit-identical to passing none); ``out`` the
    # uncropped ``(N, Cout, n_h*m, n_w*m)`` output buffer, which is filled and
    # returned when ``(out_h, out_w)`` is its full size.
    winograd_forward: Callable

    # Fused Winograd forward+backward for training: called as
    # ``out, backward = winograd_autograd(x_padded, weight, transform,
    # out_h, out_w)`` where ``backward(grad) -> (dx_padded, dweight)``.
    # Lets a backend keep the whole autograd step in its internal layout
    # (the fast backend stays tap-major end to end, skipping the layout
    # round-trips of the composed adjoint primitives).
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
_LISTENERS: list[Callable[[], None]] = []


def register_backend(backend: KernelBackend) -> KernelBackend:
    """Add ``backend`` to the registry (last registration wins on name clash)."""
    _BACKENDS[backend.name.lower()] = backend
    return backend


def available_backends() -> list[str]:
    """Names of all registered backends, sorted."""
    return sorted(_BACKENDS)


def add_backend_listener(listener: Callable[[], None]) -> Callable[[], None]:
    """Register a callback fired whenever the active backend changes.

    Used by caches keyed (implicitly or explicitly) on the active backend —
    most importantly the :mod:`repro.engine` plan cache, which must drop its
    compiled :class:`~repro.engine.LayerPlan` entries when ``set_backend`` /
    ``use_backend`` / ``reset_backend`` switch the process-wide backend.
    """
    _LISTENERS.append(listener)
    return listener


def _notify_backend_changed() -> None:
    for listener in _LISTENERS:
        listener()


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

    Fails fast with :class:`UnknownBackendError` on an unregistered name, and
    notifies registered listeners (evicting e.g. the engine's plan cache) —
    but only when the effective backend actually changes, so a redundant
    ``set_backend`` of the already-active backend keeps caches warm.
    """
    global _ACTIVE
    new = get_backend(backend)
    changed = new is not _current()
    _ACTIVE = new
    if changed:
        _notify_backend_changed()
    return _ACTIVE


def reset_backend() -> None:
    """Drop any override so the next :func:`get_backend` re-reads the env var."""
    global _ACTIVE
    had_override = _ACTIVE is not None
    _ACTIVE = None
    if had_override:
        _notify_backend_changed()


@contextlib.contextmanager
def use_backend(backend: str | KernelBackend):
    """Context manager that temporarily switches the active backend.

    Listeners fire on entry and exit only if the context actually switches
    the effective backend (a no-op ``use_backend`` of the current backend
    leaves dependent caches untouched).
    """
    global _ACTIVE
    new = get_backend(backend)
    switched = new is not _current()
    prev = _ACTIVE
    _ACTIVE = new
    if switched:
        _notify_backend_changed()
    try:
        yield _ACTIVE
    finally:
        _ACTIVE = prev
        if switched:
            _notify_backend_changed()
