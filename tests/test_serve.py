"""Tests for the serving layer: compiled models, batcher, shm pool, server.

Covers the PR 5 acceptance criteria:

* ``CompiledModel.infer`` matches eager per-layer execution (ResNet-CIFAR
  and VGG) to float tolerance, and the quantized / integer paths bit-exactly.
* Plan-cache behaviour under serving: a mid-serve backend switch evicts and
  recompiles without wrong-backend results.
* Workspace arenas are never shared across concurrent in-flight batches.
* The shared-memory pool and the rewired ``BatchRunner`` round-trip all the
  edge cases (empty batches, ragged final chunks, segment growth).
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro import engine
from repro.engine import BatchRunner
from repro.kernels import get_backend, set_backend, use_backend
from repro.kernels.fast import winograd_forward
from repro.models.resnet_cifar import resnet_tiny
from repro.models.vgg import vgg_nagadomi_tiny
from repro.nn.module import Module, Sequential
from repro.nn.tensor import Tensor, no_grad
from repro.quant import (QatConfig, QuantConv2d, QuantWinogradConv2d,
                         convert_model,
                         calibrate_tapwise_scales, integer_winograd_conv2d)
from repro.serve import (CompiledModel, MicroBatcher, Server, ShmWorkerPool,
                         compile_model)
from repro.winograd import winograd_f4


def _eager(model, x: np.ndarray) -> np.ndarray:
    model.eval()
    with no_grad():
        return model(Tensor(x)).data


def _spawn_pool(*args, **kwargs):
    try:
        return ShmWorkerPool(*args, **kwargs)
    except (OSError, PermissionError) as exc:  # pragma: no cover
        pytest.skip(f"multiprocessing/shared memory unavailable: {exc}")


# --------------------------------------------------------------------------- #
# CompiledModel vs eager execution
# --------------------------------------------------------------------------- #
class TestCompiledModel:
    def test_resnet_cifar_matches_eager(self, rng):
        model = resnet_tiny(seed=3)
        x = rng.normal(size=(2, 3, 32, 32))
        compiled = compile_model(model, (2, 3, 32, 32))
        np.testing.assert_allclose(compiled.infer(x), _eager(model, x),
                                   rtol=1e-9, atol=1e-10)

    def test_vgg_matches_eager(self, rng):
        model = vgg_nagadomi_tiny(seed=5)
        x = rng.normal(size=(2, 3, 32, 32))
        compiled = compile_model(model, (2, 3, 32, 32))
        np.testing.assert_allclose(compiled.infer(x), _eager(model, x),
                                   rtol=1e-9, atol=1e-10)

    def test_other_batch_size_reuses_model(self, rng):
        model = resnet_tiny(seed=1)
        compiled = compile_model(model, (4, 3, 32, 32))
        x = rng.normal(size=(1, 3, 32, 32))    # different batch than compiled
        np.testing.assert_allclose(compiled.infer(x), _eager(model, x),
                                   rtol=1e-9, atol=1e-10)

    def test_steady_state_zero_new_buffers(self, rng):
        """After warmup, repeated same-shape inference reuses every buffer."""
        model = resnet_tiny(seed=2)
        compiled = compile_model(model, (2, 3, 32, 32))
        x = rng.normal(size=(2, 3, 32, 32))
        compiled.infer(x)
        before = compiled.workspace_nbytes
        arena = compiled.arena_pool._all[0]
        ids_before = {id(buf) for buf in arena._buffers.values()}
        for _ in range(3):
            compiled.infer(x)
        assert compiled.workspace_nbytes == before
        assert {id(buf) for buf in arena._buffers.values()} == ids_before

    def test_signature_hiding_backend_keeps_the_arena_path(self, rng):
        """Wrappers that hide their signature change nothing: the same arena
        bytes, and ``winograd_forward`` still gets ``w_r`` and ``out``."""
        kwargs_seen = []

        def wrap(name, fn):
            def hidden(*args, **kwargs):
                if name == "winograd_forward":
                    kwargs_seen.append(sorted(kwargs))
                return fn(*args, **kwargs)
            return hidden

        model = resnet_tiny(seed=2)
        x = rng.normal(size=(2, 3, 32, 32))
        bare = compile_model(model, (2, 3, 32, 32), backend="fast")
        wrapped = compile_model(model, (2, 3, 32, 32),
                                backend=get_backend("fast").instrumented(wrap))
        np.testing.assert_array_equal(wrapped.infer(x), bare.infer(x))
        assert wrapped.workspace_nbytes == bare.workspace_nbytes
        assert kwargs_seen and all(kw == ["out", "w_r"] for kw in kwargs_seen)

    def test_output_is_not_an_arena_buffer(self, rng):
        model = resnet_tiny(seed=2)
        compiled = compile_model(model, (2, 3, 32, 32))
        x = rng.normal(size=(2, 3, 32, 32))
        out1 = compiled.infer(x).copy()
        out2 = compiled.infer(rng.normal(size=(2, 3, 32, 32)))
        # The second call must not have scribbled over the first result.
        np.testing.assert_array_equal(out1, compiled.infer(x))
        assert out1.shape == out2.shape

    def test_opaque_fallback_for_unknown_modules(self, rng):
        class Scale2(Module):
            def forward(self, x):
                return x * 2.0

        model = Sequential(Scale2())
        compiled = compile_model(model)
        x = rng.normal(size=(2, 3, 8, 8))
        np.testing.assert_array_equal(compiled.infer(x), x * 2.0)


# --------------------------------------------------------------------------- #
# Quantized layers in compiled models
# --------------------------------------------------------------------------- #
class TestCompiledQuantized:
    def _calibrated_qwino(self, rng) -> QuantWinogradConv2d:
        layer = QuantWinogradConv2d(3, 4, transform="F4", power_of_two=True)
        layer.weight.data = rng.normal(size=(4, 3, 3, 3)) * 0.2
        layer(Tensor(rng.normal(size=(2, 3, 16, 16))))     # calibrate
        return layer

    def test_quant_winograd_bit_exact(self, rng):
        model = Sequential(self._calibrated_qwino(rng))
        x = rng.normal(size=(2, 3, 16, 16))
        compiled = compile_model(model)
        np.testing.assert_array_equal(compiled.infer(x), _eager(model, x))

    def test_quant_conv_bit_exact(self, rng):
        layer = QuantConv2d(3, 4, 3, stride=2, padding=1)
        layer.weight.data = rng.normal(size=(4, 3, 3, 3)) * 0.2
        layer(Tensor(rng.normal(size=(2, 3, 16, 16))))     # calibrate
        model = Sequential(layer)
        x = rng.normal(size=(2, 3, 16, 16))
        compiled = compile_model(model)
        np.testing.assert_array_equal(compiled.infer(x), _eager(model, x))

    def test_pinned_backend_reaches_quant_steps(self, rng):
        """``compile_model(backend=...)`` binds the quant steps to the pinned
        backend too, not to the process-wide one."""
        calls = {}

        def wrap(name, fn):
            def counted(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return fn(*args, **kwargs)
            return counted

        qconv = QuantConv2d(4, 5, 3, stride=2, padding=1)
        qconv.weight.data = rng.normal(size=(5, 4, 3, 3)) * 0.2
        model = Sequential(self._calibrated_qwino(rng), qconv)
        model(Tensor(rng.normal(size=(2, 3, 16, 16))))     # calibrate qconv
        x = rng.normal(size=(2, 3, 16, 16))
        with use_backend("fast"):
            pinned = compile_model(model, backend=get_backend(
                "reference").instrumented(wrap))
            out = pinned.infer(x)
        assert calls.get("winograd_forward", 0) > 0     # the Winograd quant step
        assert calls.get("conv2d_gemm", 0) > 0          # the QuantConv2d step
        with use_backend("reference"):
            np.testing.assert_array_equal(out, _eager(model, x))

    @pytest.mark.parametrize("backend", ["fast", "reference"])
    def test_quantized_resnet_tiny_matches_eager(self, rng, backend):
        """A calibrated tap-wise QAT network compiles with every conv bound
        (no opaque steps) and matches the eager eval model, including the
        BN folded after each ``QuantConv2d``."""
        qmodel = convert_model(resnet_tiny(seed=6), QatConfig(
            algorithm="F4", tapwise=True, power_of_two=True))
        qmodel.train()
        with no_grad():
            qmodel(Tensor(rng.normal(size=(4, 3, 32, 32))))    # calibrate
        x = rng.normal(size=(2, 3, 32, 32))
        compiled = compile_model(qmodel, (2, 3, 32, 32), backend=backend)
        lines = "\n".join(compiled.describe())
        assert "opaque" not in lines and "qwino" in lines and "act_quant" in lines
        with use_backend(backend):
            expected = _eager(qmodel, x)
        np.testing.assert_allclose(compiled.infer(x), expected,
                                   rtol=1e-9, atol=1e-10)

    def test_uncalibrated_quant_layer_falls_back_opaque(self, rng):
        model = Sequential(QuantWinogradConv2d(3, 4, transform="F4"))
        compiled = compile_model(model)
        assert any("opaque" in line for line in compiled.describe())
        x = rng.normal(size=(2, 3, 16, 16))
        out = compiled.infer(x)
        assert out.shape == (2, 4, 16, 16)

    def test_integer_path_plan_bit_exact(self, rng):
        """Satellite: LayerPlan threaded through integer_winograd_conv2d."""
        x = rng.normal(size=(2, 5, 12, 12))
        w = rng.normal(size=(4, 5, 3, 3))
        t = winograd_f4()
        scales = calibrate_tapwise_scales(x, w, t, power_of_two=True)
        default = integer_winograd_conv2d(x, w, t, scales)
        plan = engine.lower_winograd(
            x.shape, w.shape, t, 1,
            quant={"path": "integer", "spatial_bits": 8, "wino_bits": 8})
        planned = integer_winograd_conv2d(x, w, t, scales, plan=plan)
        np.testing.assert_array_equal(default, planned)
        with use_backend("reference"):
            reference = integer_winograd_conv2d(x, w, t, scales)
        np.testing.assert_array_equal(default, reference)  # integer = exact

    def test_integer_path_uses_plan_cache(self, rng):
        x = rng.normal(size=(2, 3, 8, 8))
        w = rng.normal(size=(4, 3, 3, 3))
        t = winograd_f4()
        scales = calibrate_tapwise_scales(x, w, t, power_of_two=True)
        integer_winograd_conv2d(x, w, t, scales)
        before = engine.plan_cache_stats()
        integer_winograd_conv2d(x, w, t, scales)
        after = engine.plan_cache_stats()
        assert after.misses == before.misses       # second call: geometry hit
        assert after.hits > before.hits


# --------------------------------------------------------------------------- #
# Plan-cache behaviour under serving
# --------------------------------------------------------------------------- #
class TestServingPlanCache:
    def test_backend_switch_mid_serve_recompiles(self, rng):
        model = resnet_tiny(seed=4)
        x = rng.normal(size=(2, 3, 32, 32))
        compiled = compile_model(model, (2, 3, 32, 32))
        out_fast = compiled.infer(x)
        try:
            set_backend("reference")
            misses_before = engine.plan_cache_stats().misses
            out_ref = compiled.infer(x)
            # Plans were evicted: serving re-lowered against the new backend.
            assert engine.plan_cache_stats().misses > misses_before
            with use_backend("reference"):
                expected = _eager(model, x)
            np.testing.assert_allclose(out_ref, expected, rtol=1e-9, atol=1e-10)
        finally:
            set_backend("fast")
        np.testing.assert_allclose(compiled.infer(x), out_fast,
                                   rtol=1e-9, atol=1e-10)

    def test_backend_switches_do_not_grow_arena(self, rng):
        """Repeated mid-serve switches reuse slot-keyed buffers, no leak."""
        model = resnet_tiny(seed=4)
        x = rng.normal(size=(2, 3, 32, 32))
        compiled = compile_model(model, (2, 3, 32, 32))
        compiled.infer(x)
        arena = compiled.arena_pool._all[0]
        buffers_before = len(arena)
        nbytes_before = compiled.workspace_nbytes
        try:
            for _ in range(3):
                set_backend("reference")
                compiled.infer(x)
                set_backend("fast")
                compiled.infer(x)
        finally:
            set_backend("fast")
        assert len(arena) == buffers_before
        assert compiled.workspace_nbytes == nbytes_before

    def test_pinned_backend_ignores_process_switch(self, rng):
        model = resnet_tiny(seed=4)
        x = rng.normal(size=(2, 3, 32, 32))
        compiled = compile_model(model, backend="fast")
        out1 = compiled.infer(x)
        try:
            set_backend("reference")
            out2 = compiled.infer(x)
        finally:
            set_backend("fast")
        np.testing.assert_allclose(out1, out2, rtol=1e-12, atol=1e-12)

    def test_concurrent_infers_use_distinct_arenas(self, rng):
        """In-flight batches must never share workspace buffers."""
        gate = threading.Barrier(2, timeout=30)

        class Rendezvous(Module):
            active = True

            def forward(self, x):
                if Rendezvous.active:
                    gate.wait()    # both infers are in flight simultaneously
                return x

        model = Sequential(resnet_tiny(seed=6), Rendezvous())
        compiled = compile_model(model)
        x1 = rng.normal(size=(2, 3, 32, 32))
        x2 = rng.normal(size=(2, 3, 32, 32))
        results: dict[int, np.ndarray] = {}

        def work(i, x):
            results[i] = compiled.infer(x)

        threads = [threading.Thread(target=work, args=(1, x1)),
                   threading.Thread(target=work, args=(2, x2))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30)
        Rendezvous.active = False                  # let the eager pass through
        assert compiled.arena_pool.created >= 2    # one arena per in-flight
        arenas = compiled.arena_pool._all
        ids = [frozenset(id(b) for b in a._buffers.values()) for a in arenas]
        assert not (ids[0] & ids[1])               # disjoint buffer sets
        np.testing.assert_allclose(results[1], _eager(model, x1),
                                   rtol=1e-9, atol=1e-10)
        np.testing.assert_allclose(results[2], _eager(model, x2),
                                   rtol=1e-9, atol=1e-10)


# --------------------------------------------------------------------------- #
# Workspace-accepting kernels
# --------------------------------------------------------------------------- #
class TestWorkspaceKernels:
    def test_winograd_forward_out_buffer(self, rng):
        x = rng.normal(size=(2, 3, 18, 18))    # padded 16x16, F4 -> 4x4 tiles
        w = rng.normal(size=(4, 3, 3, 3))
        t = winograd_f4()
        expected = winograd_forward(x, w, t, 16, 16)
        out = np.empty((2, 4, 16, 16))
        got = winograd_forward(x, w, t, 16, 16, out=out)
        assert got is out
        np.testing.assert_array_equal(got, expected)

    def test_winograd_forward_out_shape_mismatch_raises(self, rng):
        x = rng.normal(size=(1, 3, 18, 18))
        w = rng.normal(size=(4, 3, 3, 3))
        with pytest.raises(ValueError, match="workspace"):
            winograd_forward(x, w, winograd_f4(), 16, 16,
                             out=np.empty((1, 4, 8, 8)))


# --------------------------------------------------------------------------- #
# MicroBatcher
# --------------------------------------------------------------------------- #
class TestMicroBatcher:
    def test_full_batch_released_immediately(self, rng):
        batcher = MicroBatcher(max_batch_size=3, max_delay_ms=10_000)
        reqs = [batcher.submit(rng.normal(size=(3, 8, 8))) for _ in range(3)]
        batch = batcher.next_batch(timeout=1.0)
        assert batch == reqs

    def test_deadline_releases_partial_batch(self, rng):
        batcher = MicroBatcher(max_batch_size=64, max_delay_ms=5)
        batcher.submit(rng.normal(size=(3, 8, 8)))
        batch = batcher.next_batch(timeout=2.0)
        assert batch is not None and len(batch) == 1

    def test_per_shape_queues_do_not_mix(self, rng):
        batcher = MicroBatcher(max_batch_size=2, max_delay_ms=10_000)
        a = batcher.submit(rng.normal(size=(3, 8, 8)))
        b = batcher.submit(rng.normal(size=(3, 16, 16)))
        c = batcher.submit(rng.normal(size=(3, 8, 8)))
        batch = batcher.next_batch(timeout=1.0)
        assert batch == [a, c]                  # the full 8x8 queue, not b
        batcher.close()
        leftover = batcher.next_batch(timeout=1.0)
        assert leftover == [b]                  # drained on close

    def test_closed_batcher_rejects_submissions(self, rng):
        batcher = MicroBatcher()
        batcher.close()
        with pytest.raises(RuntimeError):
            batcher.submit(rng.normal(size=(3, 8, 8)))


# --------------------------------------------------------------------------- #
# Server facade
# --------------------------------------------------------------------------- #
class TestServer:
    def test_submitted_requests_match_direct_inference(self, rng):
        model = resnet_tiny(seed=9)
        compiled = compile_model(model, (4, 3, 32, 32))
        images = [rng.normal(size=(3, 32, 32)) for _ in range(6)]
        with Server(compiled, max_batch_size=4, max_delay_ms=5) as server:
            handles = [server.submit(img) for img in images]
            outs = [h.result(timeout=30) for h in handles]
        expected = compiled.infer(np.stack(images))
        for got, want in zip(outs, expected):
            np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-10)

    def test_stats_and_infer_batch(self, rng):
        model = resnet_tiny(seed=9)
        compiled = compile_model(model, (2, 3, 32, 32))
        with Server(compiled, max_batch_size=2, max_delay_ms=5) as server:
            server.infer(rng.normal(size=(3, 32, 32)), timeout=30)
            server.infer_batch(rng.normal(size=(2, 3, 32, 32)))
            stats = server.stats()
        assert stats["requests"] == 3
        assert stats["latency_p50_ms"] > 0
        assert stats["latency_p99_ms"] >= stats["latency_p50_ms"]
        assert stats["throughput_rps"] > 0

    def test_model_error_propagates_to_caller(self, rng):
        def broken(batch, deadline=None):
            raise RuntimeError("boom")

        with Server(broken, max_batch_size=2, max_delay_ms=1) as server:
            handle = server.submit(rng.normal(size=(3, 8, 8)))
            with pytest.raises(RuntimeError, match="boom"):
                handle.result(timeout=10)

    def test_model_receives_tightest_batch_deadline(self, rng):
        seen = []

        def model(batch, deadline=None):
            seen.append(deadline)
            return batch

        with Server(model, max_batch_size=3, max_delay_ms=2_000) as server:
            timed = [server.submit(rng.normal(size=(3, 8, 8)), deadline=d)
                     for d in (60.0, 30.0, None)]
            for handle in timed:
                handle.result(timeout=10)
            untimed = [server.submit(rng.normal(size=(3, 8, 8)))
                       for _ in range(3)]
            for handle in untimed:
                handle.result(timeout=10)
        assert seen == [timed[1].deadline, None]

    def test_graceful_shutdown_drains_queue(self, rng):
        model = resnet_tiny(seed=9)
        compiled = compile_model(model, (4, 3, 32, 32))
        server = Server(compiled, max_batch_size=64, max_delay_ms=10_000)
        handles = [server.submit(rng.normal(size=(3, 32, 32)))
                   for _ in range(3)]
        server.close()                           # deadline far away: must drain
        for handle in handles:
            assert handle.result(timeout=1).shape == (10,)
        with pytest.raises(RuntimeError):
            server.submit(rng.normal(size=(3, 32, 32)))


# --------------------------------------------------------------------------- #
# Shared-memory worker pool behind BatchRunner
# --------------------------------------------------------------------------- #
class TestShmPool:
    def test_run_and_map_match_inline(self, rng, conv_job):
        w = rng.normal(size=(4, 3, 3, 3))
        b = rng.normal(size=(4,))
        job = conv_job(w, b)
        inline = BatchRunner(job)
        x = rng.normal(size=(5, 3, 12, 12))
        with _spawn_pool(job, 2) as pool:
            np.testing.assert_allclose(pool.run(x), inline.infer(x),
                                       atol=1e-12)
            streams = [rng.normal(size=(2, 3, 12, 12)) for _ in range(3)]
            for got, want in zip(pool.map(streams), inline.map(streams)):
                np.testing.assert_allclose(got, want, atol=1e-12)

    def test_segment_growth_roundtrip(self, rng, conv_job):
        w = rng.normal(size=(4, 3, 3, 3))
        job = conv_job(w)
        inline = BatchRunner(job)
        with _spawn_pool(job, 2, ring_bytes=1 << 14) as pool:  # tiny segments
            small = rng.normal(size=(2, 3, 8, 8))
            np.testing.assert_allclose(pool.run(small), inline.infer(small),
                                       atol=1e-12)
            big = rng.normal(size=(9, 3, 32, 32))  # forces in+out growth
            np.testing.assert_allclose(pool.run(big), inline.infer(big),
                                       atol=1e-12)

    def test_empty_batch_no_worker_roundtrip(self, rng, conv_job):
        job = conv_job(rng.normal(size=(4, 3, 3, 3)))
        with _spawn_pool(job, 2) as pool:
            out = pool.run(np.empty((0, 3, 10, 10)))
        assert out.shape == (0, 4, 10, 10)

    def test_pool_recovers_after_bad_input(self, rng, conv_job):
        """An error mid-batch must not poison the pool for later batches."""
        job = conv_job(rng.normal(size=(4, 3, 3, 3)))
        good = rng.normal(size=(4, 3, 10, 10))
        with _spawn_pool(job, 2) as pool:
            expected = pool.run(good)
            with pytest.raises(ValueError, match="channel"):
                pool.map([good[:2], rng.normal(size=(2, 5, 10, 10))])
            # The wire is quiet again: valid traffic still round-trips.
            np.testing.assert_allclose(pool.run(good), expected, atol=1e-12)
