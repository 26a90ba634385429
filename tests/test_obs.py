"""Tier-1 tests for ``repro.obs`` (PR 10): tracing, metrics, profiling.

Covers the three pillars and their integration seams:

* histogram percentile accuracy against ``np.percentile`` (the log-bucket
  estimator must stay inside its documented ~9% relative-error bound);
* span nesting, thread-safety of concurrent recording, ring wraparound;
* cross-process stitching — spans recorded inside real shm-pool workers
  arrive in the parent buffer with their own pids, on one timeline;
* Chrome-trace export validity;
* ``ServerStats`` ring-buffer latency window (p50/p95/p99) and the
  unified ``Server.stats()`` registry snapshot with the per-plan profile
  block.
"""

from __future__ import annotations

import json
import os
import threading

import numpy as np
import pytest

from repro import obs
from repro.obs import metrics as obs_metrics
from repro.obs import profile as obs_profile
from repro.obs import trace as obs_trace


@pytest.fixture
def obs_on():
    """Observability on, with a clean slate before and after."""
    obs_trace.reset()
    obs_profile.reset()
    with obs.enabled_scope():
        yield
    obs_trace.reset()
    obs_profile.reset()


@pytest.fixture
def small_ring():
    """Shrink the trace ring, restoring the default capacity afterwards."""
    def resize(n):
        obs_trace.set_capacity(n)
    yield resize
    obs_trace.set_capacity(obs_trace.DEFAULT_CAPACITY)


# --------------------------------------------------------------------------- #
# Metrics primitives
# --------------------------------------------------------------------------- #
class TestHistogram:
    def test_percentiles_match_numpy_within_bucket_error(self, rng):
        """Log-bucket estimates stay within the ~9% relative-error bound."""
        samples = rng.lognormal(mean=-5.0, sigma=1.5, size=5000)
        hist = obs_metrics.Histogram()
        for s in samples:
            hist.observe(s)
        for q in (50, 90, 95, 99):
            exact = float(np.percentile(samples, q))
            est = hist.percentile(q)
            assert abs(est - exact) / exact < 0.10, (q, est, exact)

    def test_single_value_and_empty(self):
        hist = obs_metrics.Histogram()
        assert np.isnan(hist.percentile(50))
        hist.observe(0.0125)
        snap = hist.snapshot()
        assert snap["count"] == 1
        assert snap["p50"] == pytest.approx(0.0125)
        assert snap["min"] == snap["max"] == pytest.approx(0.0125)

    def test_underflow_bucket(self):
        hist = obs_metrics.Histogram(lo=1e-3)
        hist.observe(1e-6)
        hist.observe(1e-9)
        assert hist.percentile(50) <= 1e-3

    def test_counter_and_gauge(self):
        c = obs_metrics.Counter()
        c.inc()
        c.inc(4)
        assert c.value == 5
        g = obs_metrics.Gauge()
        g.set(2.5)
        assert g.value == 2.5


class TestLatencyWindow:
    def test_exact_percentiles(self, rng):
        samples = rng.normal(loc=10.0, scale=2.0, size=500)
        win = obs_metrics.LatencyWindow(window=1000)
        for s in samples:
            win.record(s)
        assert win.percentile(95) == pytest.approx(
            float(np.percentile(samples, 95)))
        p50, p95 = win.percentile((50, 95))
        assert p50 == pytest.approx(float(np.percentile(samples, 50)))
        assert p95 == pytest.approx(float(np.percentile(samples, 95)))

    def test_window_retains_only_last_n(self):
        win = obs_metrics.LatencyWindow(window=4)
        for v in range(10):
            win.record(float(v))
        assert len(win) == 4
        assert sorted(win.values()) == [6.0, 7.0, 8.0, 9.0]


class TestRegistry:
    def test_collector_errors_are_contained(self):
        reg = obs_metrics.MetricsRegistry()
        reg.register_collector("good", lambda: {"x": 1})
        reg.register_collector("bad", lambda: 1 / 0)
        out = reg.collect()
        assert out["good"] == {"x": 1}
        assert "ZeroDivisionError" in out["bad"]["error"]
        reg.unregister_collector("bad")
        assert reg.collectors() == ["good"]

    def test_default_cache_blocks_have_unified_keys(self):
        block = obs_metrics.REGISTRY.collect()["plan_cache"]
        assert set(block) == {"hits", "misses", "evictions", "size"}
        assert all(isinstance(v, int) for v in block.values())


# --------------------------------------------------------------------------- #
# Tracer
# --------------------------------------------------------------------------- #
class TestTracer:
    def test_disabled_is_noop(self):
        with obs.enabled_scope(False):
            obs_trace.reset()
            assert not obs_trace.enabled()
            assert obs.span("x") is obs_trace.NULL
            with obs.span("x"):
                pass
            obs.instant("y")
            assert obs_trace.events_snapshot() == []

    def test_span_nesting_records_depth(self, obs_on):
        with obs.span("outer"):
            with obs.span("inner"):
                assert obs_trace.current_depth() == 2
        events = obs_trace.events_snapshot()
        by_name = {e[1]: e for e in events}
        assert by_name["inner"][7]["depth"] == 1
        assert by_name["outer"][7]["depth"] == 0
        # inner closes first, and nests inside outer's window
        inner, outer = by_name["inner"], by_name["outer"]
        assert outer[3] <= inner[3]
        assert inner[3] + inner[4] <= outer[3] + outer[4] + 1e-3

    def test_instant_event(self, obs_on):
        obs.instant("marker", cat="fault", detail=7)
        (event,) = obs_trace.events_snapshot()
        assert event[0] == "i" and event[1] == "marker"
        assert event[7] == {"detail": 7}

    def test_thread_safety(self, obs_on):
        def worker(i):
            for j in range(200):
                with obs.span(f"t{i}", j=j):
                    pass
        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        events = obs_trace.events_snapshot()
        assert len(events) == 8 * 200
        assert obs_trace.dropped() == 0
        # Every thread's spans all landed, none lost or corrupted.  (Thread
        # idents can be recycled across short-lived threads, so count by
        # span name, not by tid.)
        by_name = {}
        for e in events:
            by_name[e[1]] = by_name.get(e[1], 0) + 1
        assert by_name == {f"t{i}": 200 for i in range(8)}

    def test_ring_wraparound(self, obs_on, small_ring):
        small_ring(8)
        for i in range(20):
            obs.instant(f"e{i}")
        events = obs_trace.events_snapshot()
        assert len(events) == 8
        assert [e[1] for e in events] == [f"e{i}" for i in range(12, 20)]
        assert obs_trace.dropped() == 12

    def test_drain_and_absorb_keep_foreign_pid(self, obs_on):
        obs.instant("local")
        foreign = ("X", "remote", "worker", 1.0, 2.0, 99999, 1, None)
        drained = obs_trace.drain()
        assert obs_trace.events_snapshot() == []
        obs_trace.absorb(drained + [foreign])
        events = obs_trace.events_snapshot()
        assert {e[1] for e in events} == {"local", "remote"}
        assert {e[5] for e in events} == {os.getpid(), 99999}

    def test_chrome_export(self, obs_on, tmp_path):
        with obs.span("work", cat="kernel", k=1):
            obs.instant("mark")
        path = tmp_path / "trace.json"
        count = obs_trace.export(str(path))
        assert count == 2
        doc = json.loads(path.read_text())
        assert isinstance(doc["traceEvents"], list)
        for event in doc["traceEvents"]:
            assert {"name", "ph", "cat", "ts", "pid", "tid"} <= set(event)
        phases = {e["ph"] for e in doc["traceEvents"]}
        assert phases == {"X", "i"}
        x = next(e for e in doc["traceEvents"] if e["ph"] == "X")
        assert x["dur"] >= 0

    def test_export_trace_requires_path(self, obs_on, monkeypatch):
        monkeypatch.delenv(obs_trace.ENV_TRACE, raising=False)
        with pytest.raises(ValueError):
            obs.export_trace()

    def test_status_reports_state(self, obs_on):
        obs.instant("x")
        status = obs.status()
        assert status["enabled"] and status["profiling"]
        assert status["events_buffered"] == 1
        assert status["events_dropped"] == 0


# --------------------------------------------------------------------------- #
# Cross-process stitching through the shm pool
# --------------------------------------------------------------------------- #
class TestCrossProcessStitching:
    def test_pool_run_yields_single_timeline(self, obs_on, rng):
        from repro.nn.layers import Conv2d
        from repro.nn.module import Sequential
        from repro.serve import ModelJob, ShmWorkerPool
        job = ModelJob(Sequential(Conv2d(3, 4, 3, padding=1)))
        try:
            pool = ShmWorkerPool(job, num_workers=2)
        except (OSError, PermissionError) as exc:  # pragma: no cover
            pytest.skip(f"multiprocessing/shared memory unavailable: {exc}")
        try:
            pool.run(rng.normal(size=(8, 3, 12, 12)))
        finally:
            pool.close()
        events = obs_trace.events_snapshot()
        names = {e[1] for e in events}
        assert {"pool.run", "pool.job", "worker.job"} <= names
        # Worker-side spans arrive with the worker's own pid: >= 2 distinct
        # processes on one stitched timeline.
        pids = {e[5] for e in events}
        assert len(pids) >= 2
        worker_pids = {e[5] for e in events if e[1] == "worker.job"}
        assert os.getpid() not in worker_pids
        # Kernel spans from inside the workers made the hop too.
        assert any(e[2] == "kernel" for e in events)
        # Monotonic clocks are system-wide: each worker.job span must fall
        # inside the parent's pool.run window (one coherent timeline).
        run = next(e for e in events if e[1] == "pool.run")
        for e in events:
            if e[1] == "worker.job":
                assert run[3] <= e[3] + 1e-3
                assert e[3] + e[4] <= run[3] + run[4] + 1e3  # 1ms slack


# --------------------------------------------------------------------------- #
# Kernel profiling
# --------------------------------------------------------------------------- #
class TestProfile:
    def test_executor_attributes_time_per_plan(self, obs_on, rng):
        from repro.engine import CompiledConv
        conv = CompiledConv(rng.normal(size=(4, 3, 3, 3)), padding=1,
                            transform="F4")
        conv(rng.normal(size=(2, 3, 12, 12)))
        report = obs_profile.report()
        assert report
        label, block = next(iter(report.items()))
        assert "winograd" in label and "F4x3" in label
        assert block["total_s"] > 0
        prim = block["primitives"]["winograd_forward"]
        assert prim["calls"] >= 1 and prim["mean_ms"] > 0

    def test_profiling_keeps_an_instrumented_backend(self, obs_on, rng):
        """A plan on an instrumented copy of a registered backend is profiled
        through that copy, not through the registered backend's wrapper."""
        from repro.engine import CompiledConv
        from repro.kernels import get_backend
        calls = []

        def count(name, fn):
            def counted(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return counted

        w, x = rng.normal(size=(4, 3, 3, 3)), rng.normal(size=(2, 3, 12, 12))
        CompiledConv(w, padding=1, transform="F4", backend="fast")(x)
        CompiledConv(w, padding=1, transform="F4",
                     backend=get_backend("fast").instrumented(count))(x)
        assert "winograd_forward" in calls

    def test_disabled_profile_is_empty(self, rng):
        from repro.engine import CompiledConv
        with obs.enabled_scope(False):
            obs_profile.reset()
            conv = CompiledConv(rng.normal(size=(4, 3, 3, 3)), padding=1)
            conv(rng.normal(size=(2, 3, 12, 12)))
            assert obs_profile.report() == {}

    def test_compiled_model_profile(self, obs_on, rng):
        from repro.models.resnet_cifar import resnet_tiny
        from repro.serve import compile_model
        model = resnet_tiny(seed=0)
        model.eval()
        compiled = compile_model(model, (2, 3, 32, 32))
        compiled.infer(rng.normal(size=(2, 3, 32, 32)))
        report = compiled.profile()
        assert report
        for block in report.values():
            assert block["total_s"] > 0
            assert block["primitives"]


# --------------------------------------------------------------------------- #
# Server integration
# --------------------------------------------------------------------------- #
class TestServerStats:
    def _served(self):
        from repro.models.resnet_cifar import resnet_tiny
        from repro.serve import compile_model
        model = resnet_tiny(seed=0)
        model.eval()
        return compile_model(model, (2, 3, 32, 32))

    def test_stats_include_registry_blocks_and_p95(self, rng):
        from repro.serve import Server
        with obs.enabled_scope(False), \
                Server(self._served(), max_batch_size=2,
                       max_delay_ms=5) as server:
            server.infer(rng.normal(size=(3, 32, 32)), timeout=30)
            server.infer_batch(rng.normal(size=(2, 3, 32, 32)))
            stats = server.stats()
        # Pre-obs key shapes preserved ...
        assert stats["requests"] == 3
        assert stats["latency_p50_ms"] > 0
        assert stats["latency_p99_ms"] >= stats["latency_p50_ms"]
        # ... plus the new percentile and the registry's plan-cache block.
        assert stats["latency_p99_ms"] >= stats["latency_p95_ms"] > 0
        assert "hits" in stats["plan_cache"]
        assert "profile" not in stats       # profiling off -> no block

    def test_stats_profile_block_when_enabled(self, obs_on, rng):
        from repro.serve import Server
        with Server(self._served(), max_batch_size=2,
                    max_delay_ms=5) as server:
            server.infer(rng.normal(size=(3, 32, 32)), timeout=30)
            stats = server.stats()
        assert stats["profile"]
        for block in stats["profile"].values():
            assert block["total_s"] > 0
