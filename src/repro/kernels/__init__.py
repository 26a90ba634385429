"""Kernel backends for the library's numerically heavy primitives.

This package is the compute foundation of the reproduction: the fused
whole-layer Winograd forward and training step, the weight pair transform
and the im2col GEMMs all dispatch through a small registry so that multiple
implementation strategies can coexist.  Every backend implements every
member of :class:`KernelBackend` with the same call contract:

* ``"reference"`` — the seed ``np.einsum`` / Python-loop code, frozen for
  equivalence testing, with the fused Winograd entry points composed from
  the seed's staged primitives (:mod:`repro.kernels.reference`);
* ``"fast"`` — batched-GEMM formulations that reach BLAS, the default
  (:mod:`repro.kernels.fast`).

Select a backend globally with :func:`set_backend` / :func:`use_backend`, via
the ``REPRO_KERNEL_BACKEND`` environment variable, or per call with the
``backend=`` argument of the public convolution entry points.  See
``benchmarks/run_bench.py`` for the measured speedups (tracked in
``BENCH_kernels.json``).

This package deliberately imports nothing else from :mod:`repro`, so every
compute module can depend on it without import cycles.
"""

from . import fast, reference
from .einsum_cache import cached_einsum
from .registry import (DEFAULT_BACKEND, ENV_VAR, KernelBackend, TapFakeQuant,
                       TapRequant, UnknownBackendError, available_backends,
                       get_backend, register_backend, reset_backend,
                       set_backend, use_backend)

__all__ = [
    "KernelBackend",
    "TapFakeQuant",
    "TapRequant",
    "UnknownBackendError",
    "available_backends",
    "get_backend",
    "set_backend",
    "reset_backend",
    "use_backend",
    "register_backend",
    "cached_einsum",
    "ENV_VAR",
    "DEFAULT_BACKEND",
]

register_backend(reference.BACKEND)
register_backend(fast.BACKEND)
