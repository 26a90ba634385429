"""Build, cache and load shape-specialized kernels as shared objects.

The pipeline: a :class:`~repro.kernels.codegen.emit.KernelSource` is hashed
(source + cdef + compile flags + codegen version) to a digest; the digest
names both the cffi extension module (``_repro_cg_<digest>``) and the ``.so``
file in a versioned on-disk store.  Lookups go memory → disk → compile:

* **memory** — an in-process table of loaded kernels (hits are free),
* **disk** — ``$REPRO_CODEGEN_CACHE`` (default ``~/.cache/repro-codegen``),
  one subdirectory per (codegen version, CPython tag, machine) so an
  interpreter upgrade or architecture change is a whole-store miss rather
  than an ABI crash.  Objects land via build-to-tempdir + ``os.replace`` so
  a crashed build can never publish a partial file, and a corrupt or
  truncated object fails its import and is treated as a clean miss (counted,
  then rebuilt over).
* **compile** — cffi API mode in a private temp dir.  Any build failure
  marks the toolchain broken for the rest of the process (one failed probe,
  not one per shape) and reports the kernel as unavailable; callers fall
  back to their numpy paths.

All entry points return ``None`` instead of raising when codegen cannot
deliver — the contract that lets the ``tuned`` tier degrade bit-exactly to
its numpy candidates on toolchain-less hosts.
"""

from __future__ import annotations

import glob
import hashlib
import importlib.util
import os
import platform
import shutil
import sys
import sysconfig
import tempfile
import threading
from dataclasses import dataclass, field

from .emit import KernelSource

__all__ = [
    "CODEGEN_VERSION", "ENV_CACHE_DIR", "COMPILE_FLAGS",
    "CodegenStats", "cache_dir", "object_dir", "source_digest",
    "toolchain_available", "get_kernel", "warm_disk",
    "stats", "stats_dict", "reset_stats", "reset_state",
]

CODEGEN_VERSION = 1
ENV_CACHE_DIR = "REPRO_CODEGEN_CACHE"

# -O3 + forced lane vectorization: -fopenmp-simd honours `#pragma omp simd`
# without linking an OpenMP runtime.  Without it gcc vectorizes the channel
# reduction (strided gathers) instead of the tile lanes and the kernels run
# ~4x slower than the numpy they're meant to beat.
COMPILE_FLAGS = ["-O3", "-march=native", "-fno-math-errno", "-fopenmp-simd"]

_PREFIX = "_repro_cg_"


@dataclass
class CodegenStats:
    """Process-wide counters for the codegen object store."""
    builds: int = 0            # kernels compiled from source this process
    build_failures: int = 0
    memory_hits: int = 0       # lookups served by the in-process table
    disk_hits: int = 0         # lookups served by a cached .so
    warm_loads: int = 0        # objects preloaded by warm_disk()
    load_errors: int = 0       # corrupt/stale objects skipped as misses

    def as_dict(self) -> dict:
        return dict(vars(self))


_STATS = CodegenStats()
_LOCK = threading.Lock()
_KERNELS: dict[str, "LoadedKernel"] = {}     # digest -> loaded kernel
_FAILED: set[str] = set()                     # digests whose build failed
_TOOLCHAIN_BROKEN = False


@dataclass
class LoadedKernel:
    """A loaded native kernel: callable on C-contiguous float64 arrays."""
    name: str
    digest: str
    _fn: object = field(repr=False)
    _ffi: object = field(repr=False)

    def __call__(self, *arrays) -> None:
        cast = self._ffi.cast
        self._fn(*(cast("double *", a.ctypes.data) for a in arrays))


def cache_dir() -> str:
    env = os.environ.get(ENV_CACHE_DIR)
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "repro-codegen")


def object_dir() -> str:
    """The versioned store subdirectory for this interpreter + machine."""
    tag = (f"objs-v{CODEGEN_VERSION}"
           f"-cp{sys.version_info.major}{sys.version_info.minor}"
           f"-{platform.machine() or 'any'}")
    return os.path.join(cache_dir(), tag)


def _ext_suffix() -> str:
    return sysconfig.get_config_var("EXT_SUFFIX") or ".so"


def source_digest(src: KernelSource) -> str:
    h = hashlib.sha256()
    for part in (str(CODEGEN_VERSION), src.name, src.cdef, src.source,
                 " ".join(COMPILE_FLAGS)):
        h.update(part.encode())
        h.update(b"\0")
    return h.hexdigest()[:16]


def toolchain_available() -> bool:
    """Cheap probe: cffi importable and the C compiler binary on PATH.

    ``CC`` is honoured (distutils uses it for the actual build), so pointing
    it at a nonexistent binary simulates a toolchain-less host — the CI
    fallback leg does exactly that.
    """
    if _TOOLCHAIN_BROKEN:
        return False
    if importlib.util.find_spec("cffi") is None:
        return False
    cc = os.environ.get("CC") or sysconfig.get_config_var("CC") or "cc"
    return shutil.which(cc.split()[0]) is not None


def _object_path(digest: str) -> str:
    return os.path.join(object_dir(), f"{_PREFIX}{digest}{_ext_suffix()}")


def _load_object(path: str, digest: str) -> LoadedKernel | None:
    """Import one cached .so; corrupt/stale objects load as ``None``."""
    modname = f"{_PREFIX}{digest}"
    try:
        spec = importlib.util.spec_from_file_location(modname, path)
        if spec is None or spec.loader is None:
            raise ImportError(path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        lib, ffi = module.lib, module.ffi
        names = [n for n in dir(lib)]
        if len(names) != 1:
            raise ImportError(f"{path}: expected one exported kernel")
        return LoadedKernel(name=names[0], digest=digest,
                            _fn=getattr(lib, names[0]), _ffi=ffi)
    except Exception:
        with _LOCK:
            _STATS.load_errors += 1
        return None


def _build_object(src: KernelSource, digest: str) -> str | None:
    """Compile ``src`` in a private temp dir, publish atomically; path or None."""
    global _TOOLCHAIN_BROKEN
    dest = _object_path(digest)
    modname = f"{_PREFIX}{digest}"
    try:
        import cffi
        os.makedirs(object_dir(), exist_ok=True)
        tmpdir = tempfile.mkdtemp(prefix=".cg-build-", dir=object_dir())
        try:
            ffi = cffi.FFI()
            ffi.cdef(src.cdef)
            ffi.set_source(modname, src.source,
                           extra_compile_args=list(COMPILE_FLAGS))
            built = ffi.compile(tmpdir=tmpdir, verbose=False)
            produced = glob.glob(os.path.join(tmpdir, modname + "*.so"))
            path = built if os.path.exists(built) else (
                produced[0] if produced else None)
            if path is None:
                raise RuntimeError("cffi produced no object")
            os.replace(path, dest)
        finally:
            shutil.rmtree(tmpdir, ignore_errors=True)
    except Exception:
        with _LOCK:
            _STATS.build_failures += 1
            # One failed compile means every other compile on this host will
            # fail the same way; stop probing and let callers fall back.
            _TOOLCHAIN_BROKEN = True
        return None
    with _LOCK:
        _STATS.builds += 1
    return dest


def get_kernel(src: KernelSource) -> LoadedKernel | None:
    """The built kernel for ``src``: memory → disk → compile, else ``None``."""
    digest = source_digest(src)
    with _LOCK:
        kern = _KERNELS.get(digest)
        if kern is not None:
            _STATS.memory_hits += 1
            return kern
        if digest in _FAILED:
            return None
    path = _object_path(digest)
    if os.path.exists(path):
        kern = _load_object(path, digest)
        if kern is not None:
            with _LOCK:
                _KERNELS[digest] = kern
                _STATS.disk_hits += 1
            return kern
        # fall through: corrupt object is a clean miss — rebuild over it
    if not toolchain_available():
        return None
    built = _build_object(src, digest)
    if built is None:
        with _LOCK:
            _FAILED.add(digest)
        return None
    kern = _load_object(built, digest)
    if kern is None:
        with _LOCK:
            _FAILED.add(digest)
        return None
    with _LOCK:
        _KERNELS[digest] = kern
    return kern


def warm_disk() -> int:
    """Preload every valid cached object into the in-process table.

    Mirrors :func:`repro.engine.autotune.warm_disk`: pool workers call this
    at spawn/respawn so adopting a plan-cache record that names a codegen
    candidate never triggers a rebuild (or a benchmark) in the worker.
    Returns the number of objects loaded on this call.
    """
    loaded = 0
    pattern = os.path.join(object_dir(), _PREFIX + "*" + _ext_suffix())
    for path in sorted(glob.glob(pattern)):
        base = os.path.basename(path)
        digest = base[len(_PREFIX):-len(_ext_suffix())]
        with _LOCK:
            if digest in _KERNELS:
                continue
        kern = _load_object(path, digest)
        if kern is None:
            continue
        with _LOCK:
            if digest not in _KERNELS:
                _KERNELS[digest] = kern
                _STATS.warm_loads += 1
                loaded += 1
    return loaded


def stats() -> CodegenStats:
    return _STATS


def stats_dict() -> dict:
    with _LOCK:
        return _STATS.as_dict()


def reset_stats() -> None:
    global _STATS
    with _LOCK:
        _STATS = CodegenStats()


def reset_state() -> None:
    """Forget loaded kernels, failures and stats (testing / fork-cold start).

    Already-imported extension modules stay importable (CPython cannot unload
    shared objects), but lookups after a reset go back through the disk path.
    """
    global _TOOLCHAIN_BROKEN
    with _LOCK:
        _KERNELS.clear()
        _FAILED.clear()
        _TOOLCHAIN_BROKEN = False
    reset_stats()
