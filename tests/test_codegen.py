"""Tests for the shape-specialized codegen subsystem (PR 9).

Covers the codegen object store and its integration with the autotuner:

* build → memory-hit → disk-hit round trip through the versioned on-disk
  store, pinned via the stats counters;
* corruption tolerance — a truncated/garbage ``.so`` is a counted clean
  miss and is rebuilt over, never raised;
* ``warm_disk`` preloading (what pool workers run at spawn/respawn);
* graceful degradation — ``REPRO_CODEGEN=off`` and a missing C compiler
  (simulated with ``CC=<nonexistent>``) both report unavailable and return
  ``None`` from every kernel getter;
* the tuned tier offering the codegen candidate only in full mode, the
  winner persisting through the plan cache, and a simulated second process
  adopting it with zero benchmarks and zero rebuilds;
* stale plan-cache records naming codegen candidates loading as clean
  misses when codegen is unavailable;
* runtime fallback when a bound choice names a codegen kernel that can no
  longer be delivered.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.engine import CompiledConv, autotune, clear_plan_cache
from repro.kernels import codegen, compiled
from repro.kernels import fast as fast_mod
from repro.kernels import tuned as tuned_mod
from repro.kernels.codegen import build as cg_build
from repro.winograd import winograd_conv2d, winograd_f2, winograd_f4

NO_TOOLCHAIN = not codegen.available()
needs_toolchain = pytest.mark.skipif(
    NO_TOOLCHAIN, reason="no C toolchain / cffi in this environment")


@pytest.fixture
def rng():
    return np.random.default_rng(11)


@pytest.fixture
def cg_sandbox(tmp_path, monkeypatch):
    """A private codegen object store, cold state before and after."""
    monkeypatch.setenv(codegen.ENV_CACHE_DIR, str(tmp_path / "codegen"))
    codegen.reset_state()
    yield tmp_path
    codegen.reset_state()


@pytest.fixture
def full_sandbox(cg_sandbox, monkeypatch):
    """Codegen sandbox plus a private autotune plan cache."""
    monkeypatch.setenv(autotune.ENV_CACHE_DIR, str(cg_sandbox / "plans"))
    autotune.set_mode(None)
    autotune.reset_state()
    clear_plan_cache()
    yield cg_sandbox
    autotune.set_mode(None)
    autotune.reset_state()
    clear_plan_cache()


def _spec(rng, transform=None, size=12, cin=3, cout=4):
    """A WinogradSpec + matching arrays for a covered padded geometry."""
    t = transform or winograd_f4()
    x = rng.normal(size=(2, cin, size, size))
    x_padded = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    w = rng.normal(size=(cout, cin, 3, 3))
    spec = compiled._wino_spec(x_padded, cout, t, size, size)
    assert spec is not None
    return spec, x_padded, w, t


# --------------------------------------------------------------------------- #
# Object store: build, memory, disk, corruption, warm
# --------------------------------------------------------------------------- #
@needs_toolchain
class TestObjectStore:
    def test_build_then_memory_hit(self, rng, cg_sandbox):
        spec, *_ = _spec(rng)
        assert codegen.forward_kernel(spec) is not None
        assert codegen.stats_dict()["builds"] == 1
        # Same spec again: served from the per-spec memo / in-process table.
        assert codegen.forward_kernel(spec) is not None
        assert codegen.stats_dict()["builds"] == 1

    def test_disk_roundtrip_simulated_second_process(self, rng, cg_sandbox):
        spec, *_ = _spec(rng)
        assert codegen.forward_kernel(spec) is not None
        codegen.reset_state()                  # "new process", same disk
        assert codegen.forward_kernel(spec) is not None
        s = codegen.stats_dict()
        assert s["builds"] == 0
        assert s["disk_hits"] == 1

    def test_store_is_versioned_and_atomic(self, rng, cg_sandbox):
        spec, *_ = _spec(rng)
        codegen.forward_kernel(spec)
        objdir = codegen.object_dir()
        assert objdir.startswith(codegen.cache_dir())
        assert f"objs-v{codegen.CODEGEN_VERSION}" in os.path.basename(objdir)
        objects = [f for f in os.listdir(objdir) if f.startswith("_repro_cg_")]
        assert len(objects) == 1
        # No half-built temp dirs left behind by the build-and-rename dance.
        assert not [f for f in os.listdir(objdir) if f.startswith(".cg-build")]

    def test_corrupt_object_is_clean_miss_and_rebuilt(self, rng, cg_sandbox):
        # Plant garbage where the store will look *before* anything was ever
        # loaded — the real-world shape of corruption: a fresh process finds
        # a truncated object left by a crashed writer.  (Overwriting an
        # already-dlopened path in-place instead would SIGBUS any process,
        # which is exactly why the builder publishes via ``os.replace``.)
        spec, x_padded, w, t = _spec(rng)
        from repro.kernels.codegen import emit
        digest = cg_build.source_digest(emit.emit_winograd_forward(spec))
        os.makedirs(codegen.object_dir(), exist_ok=True)
        with open(cg_build._object_path(digest), "wb") as fh:
            fh.write(b"\x7fELF garbage, definitely not a shared object")
        kern = codegen.forward_kernel(spec)    # corrupt import -> rebuild over
        assert kern is not None
        s = codegen.stats_dict()
        assert s["load_errors"] >= 1
        assert s["builds"] == 1
        out = compiled.try_forward(x_padded, w, t, 12, 12)
        np.testing.assert_allclose(
            out, fast_mod.winograd_forward(x_padded, w, t, 12, 12),
            atol=1e-10)

    def test_warm_disk_preloads_without_rebuilding(self, rng, cg_sandbox):
        spec_f4, *_ = _spec(rng, winograd_f4())
        spec_f2, *_ = _spec(rng, winograd_f2())
        assert codegen.forward_kernel(spec_f4) is not None
        assert codegen.forward_kernel(spec_f2) is not None
        codegen.reset_state()
        assert codegen.warm_disk() == 2
        assert codegen.stats_dict()["warm_loads"] == 2
        assert codegen.forward_kernel(spec_f4) is not None
        s = codegen.stats_dict()
        assert s["builds"] == 0 and s["disk_hits"] == 0

    def test_warm_disk_missing_dir_is_fine(self, cg_sandbox):
        assert codegen.warm_disk() == 0
        assert codegen.stats_dict()["load_errors"] == 0


# --------------------------------------------------------------------------- #
# Availability and degradation
# --------------------------------------------------------------------------- #
class TestAvailability:
    def test_env_off_disables(self, cg_sandbox, monkeypatch, rng):
        monkeypatch.setenv(codegen.ENV_ENABLE, "off")
        codegen.reset_state()
        assert not codegen.enabled()
        assert not codegen.available()
        spec, *_ = _spec(rng)
        assert codegen.forward_kernel(spec) is None
        assert codegen.backward_kernel(spec) is None
        assert codegen.stats_dict()["builds"] == 0

    def test_missing_compiler_reports_unavailable(self, cg_sandbox,
                                                  monkeypatch, rng):
        monkeypatch.setenv("CC", "/nonexistent/bin/definitely-not-a-cc")
        codegen.reset_state()
        assert not cg_build.toolchain_available()
        assert not codegen.available()
        spec, x_padded, w, t = _spec(rng)
        assert codegen.forward_kernel(spec) is None
        # Callers are told to use their numpy paths on such a host.
        assert compiled.try_forward(x_padded, w, t, 12, 12) is None


# --------------------------------------------------------------------------- #
# Autotuner arbitration and persistence
# --------------------------------------------------------------------------- #
@needs_toolchain
class TestAutotunerIntegration:
    def _tune_once(self, rng):
        x = rng.normal(size=(2, 64, 12, 12))
        w = rng.normal(size=(64, 64, 3, 3))
        conv = CompiledConv(w, padding=1, transform="F4", backend="tuned")
        with autotune.use_mode("full"):
            out = conv(x)
        key = tuned_mod._forward_key((2, 64, 14, 14), 64, "F4", x.dtype)
        return x, w, out, key

    def test_full_mode_benchmarks_codegen_candidate(self, rng, full_sandbox):
        x, w, out, key = self._tune_once(rng)
        assert autotune.stats().benchmarks_run > 0
        assert codegen.stats_dict()["builds"] >= 1
        choice = autotune.lookup(key)
        assert choice is not None
        # Whatever won, the persisted record resolves and replays bit-exactly.
        conv = CompiledConv(w, padding=1, transform="F4", backend="tuned")
        np.testing.assert_array_equal(conv(x), out)

    def test_cached_mode_never_offers_codegen(self, rng, full_sandbox):
        x = rng.normal(size=(2, 3, 12, 12))
        w = rng.normal(size=(4, 3, 3, 3))
        winograd_conv2d(x, w, winograd_f4(), padding=1, backend="tuned")
        assert autotune.stats().benchmarks_run == 0
        assert codegen.stats_dict()["builds"] == 0

    def test_second_process_adopts_winner_without_benchmarks(self, rng,
                                                             full_sandbox):
        x, w, expected, key = self._tune_once(rng)
        # Second process: cold in-memory state, same disk caches.
        autotune.reset_state()
        clear_plan_cache()
        codegen.reset_state()
        codegen.warm_disk()
        conv = CompiledConv(w, padding=1, transform="F4", backend="tuned")
        np.testing.assert_array_equal(conv(x), expected)
        assert autotune.stats().benchmarks_run == 0
        assert codegen.stats_dict()["builds"] == 0

    def test_stale_codegen_record_is_clean_miss(self, full_sandbox,
                                                monkeypatch):
        key = "winograd_forward|x=(2, 64, 14, 14)|cout=64|t=F4|dt=float64"
        path = autotune.cache_path()
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"version": autotune.CACHE_VERSION,
                       "records": {key: {"choice": {"kernel": "codegen"},
                                         "best_s": 0.001,
                                         "backend": "tuned"}}}, fh)
        monkeypatch.setenv(codegen.ENV_ENABLE, "off")
        codegen.reset_state()
        assert autotune.warm_disk() == 0
        assert autotune.stats().stale_records == 1
        assert autotune.lookup(key) is None    # clean miss, no exception

    def test_runtime_fallback_when_codegen_unavailable(self, rng,
                                                       full_sandbox,
                                                       monkeypatch):
        """A bound codegen choice that can't run falls back to numpy."""
        x = rng.normal(size=(2, 3, 12, 12))
        x_padded = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
        w = rng.normal(size=(4, 3, 3, 3))
        t = winograd_f4()
        expected = fast_mod.winograd_forward(x_padded, w, t, 12, 12)
        monkeypatch.setenv(codegen.ENV_ENABLE, "off")
        codegen.reset_state()
        got = tuned_mod._run_forward({"kernel": "codegen"}, x_padded, w, t,
                                     12, 12, None, None)
        np.testing.assert_array_equal(got, expected)
