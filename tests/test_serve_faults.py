"""Chaos suite: fault injection against the supervised serving stack (PR 6).

Every failure mode the robustness layer claims to handle is exercised here
with *deterministic* faults (:class:`repro.serve.FaultPlan`), and recovery is
held to the strongest possible standard — bit-exact equality with a
fault-free run:

* worker SIGKILL mid-batch -> supervisor respawns + retries, results
  bit-exact, pool back at full strength;
* dropped replies (hangs) -> heartbeat stall detection replaces the worker;
* corrupted shm payloads -> checksum verification catches and retries;
* deadline expiry under a stalled worker -> :class:`RequestTimeout`, later
  batches unaffected;
* worker-side exceptions -> :class:`WorkerJobError` with the remote
  traceback, job index, and *all* sibling errors (none swallowed);
* overload -> :class:`ServerOverloaded` shedding with watermark stats;
* a pool that cannot be revived -> :class:`PoolUnavailable` and graceful
  degradation to in-process execution (``BatchRunner`` inline, ``Server``
  fallback model);
* cancelled / queue-expired requests are never computed;
* workspace-arena leases are reclaimed on mid-inference aborts.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.engine import ArenaPool, BatchRunner, ConvJob
from repro.models.resnet_cifar import resnet_tiny
from repro.nn.module import Module, Sequential
from repro.serve import (Fault, FaultPlan, PoolUnavailable, RequestTimeout,
                         Server, ServerOverloaded, ShmWorkerPool,
                         WorkerCrashed, WorkerJobError, compile_model)
from repro.serve.errors import deadline_clock


def _spawn_pool(*args, **kwargs):
    try:
        return ShmWorkerPool(*args, **kwargs)
    except (OSError, PermissionError) as exc:  # pragma: no cover
        pytest.skip(f"multiprocessing/shared memory unavailable: {exc}")


def _job(rng, **kwargs) -> ConvJob:
    w = rng.normal(size=(4, 3, 3, 3))
    return ConvJob(weight=w, bias=rng.normal(size=(4,)), padding=1,
                   transform="F4", **kwargs)


class _SentinelJob(ConvJob):
    """A ConvJob whose compiled conv raises on inputs marked with 777."""

    def compile(self):
        base = super().compile()

        def conv(x):
            if x.size and float(x.flat[0]) == 777.0:
                raise ValueError("sentinel input rejected")
            return base(x)

        return conv


# --------------------------------------------------------------------------- #
# FaultPlan mechanics
# --------------------------------------------------------------------------- #
class TestFaultPlan:
    def test_fluent_builders_and_lookup(self):
        plan = (FaultPlan().kill(worker=0, step=1)
                .delay(worker=1, step=2, seconds=0.05)
                .corrupt(worker=0, step=3))
        assert len(plan) == 3 and bool(plan)
        w0 = plan.for_worker(0)
        assert w0[1].kind == "kill" and w0[3].kind == "corrupt"
        assert plan.for_worker(1)[2].seconds == 0.05
        assert plan.for_worker(2) == {}

    def test_first_scripted_fault_wins_per_step(self):
        plan = FaultPlan().kill(worker=0, step=1).drop(worker=0, step=1)
        assert plan.for_worker(0)[1].kind == "kill"

    def test_empty_plan_is_falsy_but_valid(self):
        plan = FaultPlan()
        assert not plan and len(plan) == 0
        assert plan.for_worker(0) == {}

    def test_invalid_faults_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            Fault("explode", 0, 1)
        with pytest.raises(ValueError, match="1-based"):
            Fault("kill", 0, 0)

    def test_random_plan_is_seed_deterministic(self):
        a = FaultPlan.random(seed=42, num_workers=3, steps=5,
                             p_kill=0.3, p_corrupt=0.3)
        b = FaultPlan.random(seed=42, num_workers=3, steps=5,
                             p_kill=0.3, p_corrupt=0.3)
        assert a.faults == b.faults
        c = FaultPlan.random(seed=43, num_workers=3, steps=5,
                             p_kill=0.3, p_corrupt=0.3)
        assert a.faults != c.faults


# --------------------------------------------------------------------------- #
# Pool supervision under injected faults
# --------------------------------------------------------------------------- #
class TestPoolChaos:
    def test_kill_mid_batch_recovers_bit_exact(self, rng):
        """A SIGKILLed worker's chunk is retried bit-exactly; pool refills."""
        job = _job(rng)
        x = rng.normal(size=(6, 3, 12, 12))
        with _spawn_pool(job, 2) as clean:
            expected = clean.run(x)
        plan = FaultPlan().kill(worker=0, step=1)
        with _spawn_pool(job, 2, faults=plan) as pool:
            got = pool.run(x)
            np.testing.assert_array_equal(got, expected)
            assert pool.healthy and pool.live_workers == 2
            stats = pool.stats()
        assert stats["deaths"] >= 1
        assert stats["restarts"] >= 1
        assert stats["retried_jobs"] >= 1

    def test_kill_at_later_step_in_stream(self, rng):
        """Faults are per-worker step-indexed, not global; map() recovers."""
        job = _job(rng)
        streams = [rng.normal(size=(2, 3, 12, 12)) for _ in range(4)]
        with _spawn_pool(job, 2) as clean:
            expected = clean.map(streams)
        plan = FaultPlan().kill(worker=0, step=2)
        with _spawn_pool(job, 2, faults=plan) as pool:
            got = pool.map(streams)
            assert pool.stats()["restarts"] >= 1
        for g, e in zip(got, expected):
            np.testing.assert_array_equal(g, e)

    def test_delay_fault_is_not_treated_as_death(self, rng):
        """A slow straggler keeps heartbeating; supervision must not fire."""
        job = _job(rng)
        x = rng.normal(size=(4, 3, 10, 10))
        with _spawn_pool(job, 2) as clean:
            expected = clean.run(x)
        plan = FaultPlan().delay(worker=0, step=1, seconds=0.3)
        with _spawn_pool(job, 2, faults=plan, heartbeat_interval=0.05,
                         heartbeat_timeout=0.15) as pool:
            np.testing.assert_array_equal(pool.run(x), expected)
            stats = pool.stats()
        assert stats["deaths"] == 0 and stats["restarts"] == 0

    def test_drop_fault_triggers_stall_detection(self, rng):
        """A worker that computes but never replies is declared stalled."""
        job = _job(rng)
        x = rng.normal(size=(4, 3, 10, 10))
        with _spawn_pool(job, 2) as clean:
            expected = clean.run(x)
        plan = FaultPlan().drop(worker=0, step=1)
        with _spawn_pool(job, 2, faults=plan, heartbeat_interval=0.05,
                         heartbeat_timeout=0.5) as pool:
            np.testing.assert_array_equal(pool.run(x), expected)
            assert pool.healthy
            stats = pool.stats()
        assert stats["deaths"] >= 1 and stats["restarts"] >= 1

    def test_corrupt_payload_detected_and_retried(self, rng):
        """Checksum verification catches scribbled shm payloads."""
        job = _job(rng)
        x = rng.normal(size=(6, 3, 12, 12))
        with _spawn_pool(job, 2) as clean:
            expected = clean.run(x)
        plan = FaultPlan().corrupt(worker=0, step=1)
        with _spawn_pool(job, 2, faults=plan) as pool:
            np.testing.assert_array_equal(pool.run(x), expected)
            stats = pool.stats()
        assert stats["corrupt_replies"] >= 1
        assert stats["retried_jobs"] >= 1
        assert stats["deaths"] == 0        # retried without killing anyone

    def test_deadline_expiry_raises_without_poisoning_pool(self, rng):
        """A stalled batch times out; the next batch is clean and correct."""
        job = _job(rng)
        x = rng.normal(size=(4, 3, 10, 10))
        plan = FaultPlan().drop(worker=0, step=1)
        with _spawn_pool(job, 2, faults=plan,
                         heartbeat_interval=None) as pool:
            with pytest.raises(RequestTimeout):
                pool.run(x, deadline=deadline_clock() + 0.4)
            # The stalled worker was replaced; no stale reply can land.
            got = pool.run(x)
            assert pool.healthy
        with _spawn_pool(job, 2) as clean:
            np.testing.assert_array_equal(got, clean.run(x))

    def test_retry_cap_surfaces_worker_crashed(self, rng):
        job = _job(rng)
        plan = FaultPlan().kill(worker=0, step=1)
        x = rng.normal(size=(2, 3, 10, 10))
        with _spawn_pool(job, 1, faults=plan, max_job_retries=0) as pool:
            with pytest.raises(WorkerCrashed) as excinfo:
                pool.run(x)
            assert excinfo.value.job_index == 0
            # The slot was still refilled: the pool survives the failure.
            out = pool.run(x)
            assert out.shape == (2, 4, 10, 10)

    def test_worker_error_carries_remote_traceback_and_siblings(self, rng):
        """Worker-side exceptions surface typed, with nothing swallowed."""
        job = _SentinelJob(weight=rng.normal(size=(4, 3, 3, 3)), padding=1,
                           transform="F4")
        good = rng.normal(size=(2, 3, 10, 10))
        bad1 = good.copy()
        bad1.flat[0] = 777.0
        bad2 = good.copy() + 1.0
        bad2.flat[0] = 777.0
        with _spawn_pool(job, 2) as pool:
            with pytest.raises(WorkerJobError) as excinfo:
                pool.map([bad1, bad2])
            err = excinfo.value
            assert "sentinel input rejected" in str(err)
            assert "ValueError" in err.remote_traceback
            assert err.exc_type == "ValueError"
            assert err.job_index in (0, 1)
            # Both workers failed; the second error rides along as a sibling.
            assert len(err.siblings) == 1
            assert err.siblings[0].job_index != err.job_index
            # The wire is quiet again: valid traffic still round-trips.
            out = pool.map([good, good])
            np.testing.assert_array_equal(out[0], out[1])

    def test_heartbeats_disabled_matches_inline(self, rng):
        """heartbeat_interval=None is the bare PR 5 wire — results agree."""
        job = _job(rng)
        x = rng.normal(size=(5, 3, 12, 12))
        inline = BatchRunner(job)
        with _spawn_pool(job, 2, heartbeat_interval=None) as pool:
            np.testing.assert_allclose(pool.run(x), inline.run(x), atol=1e-12)

    def test_kill_worker_helper_then_heal(self, rng):
        """External SIGKILL (not scripted) is also survived via _heal."""
        job = _job(rng)
        x = rng.normal(size=(4, 3, 10, 10))
        with _spawn_pool(job, 2) as pool:
            expected = pool.run(x)
            pool.kill_worker(0)
            np.testing.assert_array_equal(pool.run(x), expected)
            assert pool.healthy

    def test_kill_leaves_supervision_markers_in_trace(self, rng):
        """A SIGKILL recovery renders as instant events on the timeline.

        With ``repro.obs`` on, the supervisor's actions — worker death,
        respawn, job retry — must appear as fault-category instant events
        in the trace buffer, so a served request's recovery is auditable
        in the exported timeline, not just in the stats counters.
        """
        from repro import obs
        from repro.obs import trace as obs_trace
        job = _job(rng)
        x = rng.normal(size=(6, 3, 12, 12))
        plan = FaultPlan().kill(worker=0, step=1)
        obs_trace.reset()
        with obs.enabled_scope():
            with _spawn_pool(job, 2, faults=plan) as pool:
                pool.run(x)
                assert pool.stats()["restarts"] >= 1
            events = obs_trace.events_snapshot()
        obs_trace.reset()
        names = {e[1] for e in events}
        assert {"pool.worker_death", "pool.respawn", "pool.retry"} <= names
        death = next(e for e in events if e[1] == "pool.worker_death")
        assert death[0] == "i" and death[2] == "fault"
        assert death[7]["worker"] == 0
        retry = next(e for e in events if e[1] == "pool.retry")
        assert retry[7]["attempt"] >= 1


# --------------------------------------------------------------------------- #
# Autotune cache under chaos: respawned workers re-warm from disk
# --------------------------------------------------------------------------- #
class TestTunedWorkerWarmth:
    def test_respawned_worker_rewarms_from_disk(self, rng, tmp_path,
                                                monkeypatch):
        """A SIGKILLed tuned worker's replacement loads winners, never tunes.

        The parent tunes the exact chunk shape the pool will shard to and
        persists the winners; every worker — including the supervisor's
        respawn after the scripted kill — must then answer its kernel-variant
        decisions from the disk cache with zero benchmarks.
        """
        from repro.engine import autotune
        monkeypatch.setenv(autotune.ENV_CACHE_DIR, str(tmp_path))
        autotune.reset_state()
        try:
            job = _job(rng, backend="tuned")
            x = rng.normal(size=(6, 3, 12, 12))
            conv = job.compile()
            with autotune.use_mode("full"):
                conv(x[:3])                    # one 2-worker chunk's shape
            assert autotune.stats().persisted_records >= 1

            autotune.reset_state()             # forked workers start cold
            plan = FaultPlan().kill(worker=0, step=1)
            with _spawn_pool(job, 2, faults=plan) as pool:
                got = pool.run(x)
                assert pool.stats()["restarts"] >= 1
                per_worker = pool.autotune_stats()
                assert sorted(per_worker) == [0, 1]
                for stats in per_worker.values():
                    assert stats["benchmarks_run"] == 0
                    assert stats["disk_loads"] >= 1
                    assert stats["loaded_records"] >= 1
                assert sum(s["disk_hits"] for s in per_worker.values()) >= 1
            with _spawn_pool(job, 2) as clean:
                np.testing.assert_array_equal(got, clean.run(x))
        finally:
            autotune.reset_state()

    def test_respawned_worker_warms_codegen_objects(self, rng, tmp_path,
                                                    monkeypatch):
        """A respawned worker loads prebuilt codegen objects, never compiles.

        The parent's full-mode tuning pass builds the shape-specialized
        kernels into the shared object store; every worker — including the
        replacement for the SIGKILLed one — must preload them at spawn
        (``warm_loads``) and answer its decisions without a single build or
        benchmark of its own.
        """
        from repro.engine import autotune
        from repro.kernels import codegen
        if not codegen.available():
            pytest.skip("no C toolchain / cffi in this environment")
        monkeypatch.setenv(autotune.ENV_CACHE_DIR, str(tmp_path / "plans"))
        monkeypatch.setenv(codegen.ENV_CACHE_DIR, str(tmp_path / "codegen"))
        autotune.reset_state()
        codegen.reset_state()
        try:
            job = _job(rng, backend="tuned")
            x = rng.normal(size=(6, 3, 12, 12))
            conv = job.compile()
            with autotune.use_mode("full"):
                conv(x[:3])                    # one 2-worker chunk's shape
            assert autotune.stats().persisted_records >= 1
            assert codegen.stats_dict()["builds"] >= 1

            autotune.reset_state()             # forked workers start cold
            codegen.reset_state()
            plan = FaultPlan().kill(worker=0, step=1)
            with _spawn_pool(job, 2, faults=plan) as pool:
                got = pool.run(x)
                assert pool.stats()["restarts"] >= 1
                per_worker = pool.autotune_stats()
                assert sorted(per_worker) == [0, 1]
                for stats in per_worker.values():
                    assert stats["benchmarks_run"] == 0
                    cg = stats["codegen"]
                    assert cg["builds"] == 0
                    assert cg["build_failures"] == 0
                    assert cg["warm_loads"] >= 1
            with _spawn_pool(job, 2) as clean:
                np.testing.assert_array_equal(got, clean.run(x))
        finally:
            autotune.reset_state()
            codegen.reset_state()


# --------------------------------------------------------------------------- #
# Graceful degradation when the pool is gone for good
# --------------------------------------------------------------------------- #
class TestDegradation:
    def test_runner_degrades_inline_when_pool_unrevivable(self, rng):
        job = _job(rng)
        x = rng.normal(size=(4, 3, 10, 10))
        inline = BatchRunner(job)
        expected = inline.run(x)
        runner = BatchRunner(job, num_workers=1)
        if runner.transport != "shm":                  # pragma: no cover
            pytest.skip("multiprocessing/shared memory unavailable")
        with runner:
            pool = runner._shm_pool
            pool.supervisor.max_respawn_attempts = 0   # forbid revival
            pool.kill_worker(0)
            pool._workers[0].proc.join(5)
            got = runner.run(x)                        # degrades mid-run
            assert runner.transport == "inline"
            np.testing.assert_allclose(got, expected, atol=1e-12)
            # Later calls keep working inline.
            np.testing.assert_allclose(runner.run(x), expected, atol=1e-12)

    def test_server_falls_back_to_inprocess_model(self, rng):
        def primary(batch, deadline=None):
            raise PoolUnavailable("worker pool gone")

        def backup(batch, deadline=None):
            return batch * 3.0

        x = rng.normal(size=(3, 8, 8))
        with Server(primary, fallback=backup, max_batch_size=2,
                    max_delay_ms=1) as server:
            np.testing.assert_allclose(server.infer(x, timeout=10), x * 3.0)
            np.testing.assert_allclose(server.infer_batch(np.stack([x])),
                                       np.stack([x]) * 3.0)
            stats = server.stats()
        assert stats["fallbacks"] == 2

    def test_server_without_fallback_propagates(self, rng):
        def primary(batch, deadline=None):
            raise PoolUnavailable("worker pool gone")

        with Server(primary, max_batch_size=2, max_delay_ms=1) as server:
            handle = server.submit(rng.normal(size=(3, 8, 8)))
            with pytest.raises(PoolUnavailable):
                handle.result(timeout=10)


# --------------------------------------------------------------------------- #
# Server: deadlines, cancellation, load shedding
# --------------------------------------------------------------------------- #
class _Gate:
    """A model that blocks until released, recording what it computed."""

    def __init__(self):
        self.started = threading.Event()
        self.release = threading.Event()
        self.calls = []

    def __call__(self, batch, deadline=None):
        self.calls.append(batch.shape)
        self.started.set()
        if not self.release.wait(20):  # pragma: no cover - hung test guard
            raise RuntimeError("gate never released")
        return batch * 2.0


class TestServerRobustness:
    def test_overload_sheds_with_typed_error_and_stats(self, rng):
        gate = _Gate()
        server = Server(gate, max_batch_size=1, max_delay_ms=0,
                        num_threads=1, max_pending=2)
        try:
            first = server.submit(rng.normal(size=(3, 8, 8)))
            assert gate.started.wait(10)       # worker thread is now blocked
            queued = [server.submit(rng.normal(size=(3, 8, 8)))
                      for _ in range(2)]
            with pytest.raises(ServerOverloaded) as excinfo:
                server.submit(rng.normal(size=(3, 8, 8)))
            assert excinfo.value.limit == 2
            assert excinfo.value.pending >= 2
        finally:
            gate.release.set()
            server.close()
        for handle in [first, *queued]:
            assert handle.result(timeout=10).shape == (3, 8, 8)
        stats = server.stats()
        assert stats["shed"] >= 1
        assert stats["queue_high_watermark"] >= 2
        assert stats["queue_limit"] == 2

    def test_infer_timeout_cancels_queued_request(self, rng):
        """An expired infer() leaves no orphaned work for the model."""
        gate = _Gate()
        server = Server(gate, max_batch_size=1, max_delay_ms=0, num_threads=1)
        try:
            first = server.submit(rng.normal(size=(3, 8, 8)))
            assert gate.started.wait(10)
            with pytest.raises(RequestTimeout):
                server.infer(rng.normal(size=(3, 8, 8)), timeout=0.2)
        finally:
            gate.release.set()
            server.close()
        assert first.result(timeout=10).shape == (3, 8, 8)
        stats = server.stats()
        assert len(gate.calls) == 1            # the timed-out image never ran
        assert stats["timeouts"] >= 1
        assert stats["cancelled_skipped"] >= 1

    def test_submit_deadline_expires_in_queue_before_dispatch(self, rng):
        gate = _Gate()
        server = Server(gate, max_batch_size=1, max_delay_ms=0, num_threads=1)
        try:
            first = server.submit(rng.normal(size=(3, 8, 8)))
            assert gate.started.wait(10)
            doomed = server.submit(rng.normal(size=(3, 8, 8)), deadline=0.05)
            time.sleep(0.15)                   # let the deadline lapse queued
        finally:
            gate.release.set()
            server.close()
        assert first.result(timeout=10).shape == (3, 8, 8)
        with pytest.raises(RequestTimeout):
            doomed.result(timeout=10)
        assert len(gate.calls) == 1            # expired work was not computed
        assert server.stats()["expired_in_queue"] >= 1

    def test_request_cancel_skipped_at_dispatch(self, rng):
        gate = _Gate()
        server = Server(gate, max_batch_size=1, max_delay_ms=0, num_threads=1)
        try:
            first = server.submit(rng.normal(size=(3, 8, 8)))
            assert gate.started.wait(10)
            victim = server.submit(rng.normal(size=(3, 8, 8)))
            assert victim.cancel()
            assert victim.cancelled
        finally:
            gate.release.set()
            server.close()
        assert first.result(timeout=10).shape == (3, 8, 8)
        assert len(gate.calls) == 1
        assert server.stats()["cancelled_skipped"] >= 1

    def test_cancel_after_completion_returns_false(self, rng):
        def identity(batch, deadline=None):
            return batch

        with Server(identity, max_batch_size=1, max_delay_ms=0) as server:
            handle = server.submit(rng.normal(size=(3, 8, 8)))
            handle.result(timeout=10)
            assert not handle.cancel()
            assert not handle.cancelled


# --------------------------------------------------------------------------- #
# CompiledModel deadlines and arena lease reclamation
# --------------------------------------------------------------------------- #
class _Sleepy(Module):
    def __init__(self, seconds: float):
        super().__init__()
        self.seconds = seconds

    def forward(self, x):
        time.sleep(self.seconds)
        return x * 1.0


class TestDeadlinesAndArenas:
    def test_compiled_model_honours_deadline(self, rng):
        model = resnet_tiny(seed=2)
        compiled = compile_model(model, (2, 3, 32, 32))
        x = rng.normal(size=(2, 3, 32, 32))
        out = compiled.infer(x, deadline=deadline_clock() + 30.0)
        np.testing.assert_array_equal(out, compiled.infer(x))
        with pytest.raises(RequestTimeout):
            compiled.infer(x, deadline=deadline_clock() - 1.0)

    def test_mid_infer_abort_reclaims_arena_lease(self, rng):
        compiled = compile_model(Sequential(_Sleepy(0.05)))
        x = rng.normal(size=(2, 3, 8, 8))
        compiled.infer(x)                       # warm; lease cycles cleanly
        assert compiled.arena_pool.leased == 0
        with pytest.raises(RequestTimeout):
            # Passes the entry check, expires after the first (sleepy) step.
            compiled.infer(x, deadline=deadline_clock() + 0.01)
        assert compiled.arena_pool.leased == 0
        assert compiled.arena_pool.reclaimed >= 1
        np.testing.assert_array_equal(compiled.infer(x), x * 1.0)

    def test_arena_pool_lease_exception_path(self):
        pool = ArenaPool()
        with pytest.raises(ValueError, match="boom"):
            with pool.lease() as arena:
                arena.get(None, "scratch", shape=(16,), slot="step")
                assert len(arena) == 1
                raise ValueError("boom")
        assert pool.leased == 0
        assert pool.reclaimed == 1
        with pool.lease() as arena:
            assert len(arena) == 0             # reclaimed arenas come back clean
