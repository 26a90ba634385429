"""Chaos suite: fault injection against the supervised serving stack (PR 6).

Every failure mode the robustness layer claims to handle is exercised here
with *deterministic* faults (:class:`repro.serve.FaultPlan`) on a
pool-served ``resnet_tiny`` (a :class:`repro.serve.ModelJob`), float and
tap-wise quantized, and recovery is held to the strongest possible standard
— bit-exact equality with a fault-free run:

* worker SIGKILL mid-batch -> supervisor respawns + retries, results
  bit-exact, pool back at full strength;
* dropped replies (hangs) -> heartbeat stall detection replaces the worker;
* corrupted shm payloads -> checksum verification catches and retries;
* deadline expiry under a stalled or slow worker -> :class:`RequestTimeout`
  (from the pool and through ``Server``), later batches unaffected;
* worker-side exceptions -> :class:`WorkerJobError` with the remote
  traceback, job index, and *all* sibling errors (none swallowed);
* overload -> :class:`ServerOverloaded` shedding with watermark stats;
* a pool that cannot be revived -> :class:`PoolUnavailable` inside
  ``BatchRunner``, which degrades to inline execution of the same chunks,
  bit-identical to the pool, also mid-serve under ``Server``;
* cancelled / queue-expired requests are never computed;
* workspace-arena leases are reclaimed on mid-inference aborts.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.datasets.synthetic import make_shapes_dataset
from repro.engine import ArenaPool, BatchRunner
from repro.models.resnet_cifar import resnet_tiny
from repro.nn.data import DataLoader
from repro.nn.module import Module, Sequential
from repro.quant import (QatConfig, calibrate_model, convert_model,
                         freeze_calibration)
from repro.serve import (Fault, FaultPlan, ModelJob, PoolUnavailable,
                         RequestTimeout, Server, ServerOverloaded,
                         ShmWorkerPool, WorkerCrashed, WorkerJobError,
                         compile_model)
from repro.serve.errors import deadline_clock


def _spawn_pool(*args, **kwargs):
    try:
        return ShmWorkerPool(*args, **kwargs)
    except (OSError, PermissionError) as exc:  # pragma: no cover
        pytest.skip(f"multiprocessing/shared memory unavailable: {exc}")


def _spawn_runner(*args, **kwargs) -> BatchRunner:
    runner = BatchRunner(*args, **kwargs)
    if runner.transport != "shm":                      # pragma: no cover
        pytest.skip("multiprocessing/shared memory unavailable")
    return runner


@pytest.fixture(scope="module", params=["float", "tapwise"])
def network(request):
    """``resnet_tiny`` in eval mode: float, or tap-wise int8 F4 with frozen
    power-of-two scales."""
    model = resnet_tiny(seed=5)
    if request.param == "tapwise":
        model = convert_model(model, QatConfig(algorithm="F4", tapwise=True,
                                               power_of_two=True))
        calib = make_shapes_dataset(num_samples=32, seed=1)
        calibrate_model(model, DataLoader(calib, batch_size=16,
                                          shuffle=False), max_batches=2)
        freeze_calibration(model)
    model.eval()
    return model


def _images(rng, n: int) -> np.ndarray:
    return rng.normal(size=(n, 3, 32, 32))


class _Sentinel(Module):
    """Rejects inputs marked with 777; compile_model runs it as an opaque
    step in front of the network."""

    def forward(self, x):
        if x.data.size and float(x.data.flat[0]) == 777.0:
            raise ValueError("sentinel input rejected")
        return x


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
    def test_kill_mid_batch_recovers_bit_exact(self, rng, network):
        """A SIGKILLed worker's chunk is retried bit-exactly; pool refills."""
        job = ModelJob(network)
        x = _images(rng, 6)
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

    def test_kill_at_later_step_in_stream(self, rng, network):
        """Faults are per-worker step-indexed, not global; map() recovers."""
        job = ModelJob(network)
        streams = [_images(rng, 2) for _ in range(4)]
        with _spawn_pool(job, 2) as clean:
            expected = clean.map(streams)
        plan = FaultPlan().kill(worker=0, step=2)
        with _spawn_pool(job, 2, faults=plan) as pool:
            got = pool.map(streams)
            assert pool.stats()["restarts"] >= 1
        for g, e in zip(got, expected):
            np.testing.assert_array_equal(g, e)

    def test_delay_fault_is_not_treated_as_death(self, rng, network):
        """A slow straggler keeps heartbeating; supervision must not fire."""
        job = ModelJob(network)
        x = _images(rng, 4)
        with _spawn_pool(job, 2) as clean:
            expected = clean.run(x)
        plan = FaultPlan().delay(worker=0, step=1, seconds=0.3)
        with _spawn_pool(job, 2, faults=plan, heartbeat_interval=0.05,
                         heartbeat_timeout=0.15) as pool:
            np.testing.assert_array_equal(pool.run(x), expected)
            stats = pool.stats()
        assert stats["deaths"] == 0 and stats["restarts"] == 0

    def test_drop_fault_triggers_stall_detection(self, rng, network):
        """A worker that computes but never replies is declared stalled."""
        job = ModelJob(network)
        x = _images(rng, 4)
        with _spawn_pool(job, 2) as clean:
            expected = clean.run(x)
        plan = FaultPlan().drop(worker=0, step=1)
        with _spawn_pool(job, 2, faults=plan, heartbeat_interval=0.05,
                         heartbeat_timeout=0.5) as pool:
            np.testing.assert_array_equal(pool.run(x), expected)
            assert pool.healthy
            stats = pool.stats()
        assert stats["deaths"] >= 1 and stats["restarts"] >= 1

    def test_corrupt_payload_detected_and_retried(self, rng, network):
        """Checksum verification catches scribbled shm payloads."""
        job = ModelJob(network)
        x = _images(rng, 6)
        with _spawn_pool(job, 2) as clean:
            expected = clean.run(x)
        plan = FaultPlan().corrupt(worker=0, step=1)
        with _spawn_pool(job, 2, faults=plan) as pool:
            np.testing.assert_array_equal(pool.run(x), expected)
            stats = pool.stats()
        assert stats["corrupt_replies"] >= 1
        assert stats["retried_jobs"] >= 1
        assert stats["deaths"] == 0        # retried without killing anyone

    def test_deadline_expiry_raises_without_poisoning_pool(self, rng,
                                                           network):
        """A stalled batch times out; the next batch is clean and correct."""
        job = ModelJob(network)
        x = _images(rng, 4)
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

    def test_retry_cap_surfaces_worker_crashed(self, rng, network):
        job = ModelJob(network)
        plan = FaultPlan().kill(worker=0, step=1)
        x = _images(rng, 2)
        with _spawn_pool(job, 1, faults=plan, max_job_retries=0) as pool:
            with pytest.raises(WorkerCrashed) as excinfo:
                pool.run(x)
            assert excinfo.value.job_index == 0
            # The slot was still refilled: the pool survives the failure.
            out = pool.run(x)
            assert out.shape == (2, 10)

    def test_worker_error_carries_remote_traceback_and_siblings(self, rng,
                                                                network):
        """Worker-side exceptions surface typed, with nothing swallowed."""
        job = ModelJob(Sequential(_Sentinel(), network))
        good = _images(rng, 2)
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

    def test_heartbeats_disabled_matches_inline(self, rng, network):
        """heartbeat_interval=None is the bare PR 5 wire — results agree
        bit for bit with inline execution of the same chunks."""
        job = ModelJob(network)
        x = _images(rng, 5)
        born_inline = BatchRunner(job, num_workers=2,
                                  mp_context="__no_such_context__")
        assert born_inline.degraded
        with _spawn_pool(job, 2, heartbeat_interval=None) as pool:
            np.testing.assert_array_equal(pool.run(x), born_inline.infer(x))

    def test_kill_worker_helper_then_heal(self, rng, network):
        """External SIGKILL (not scripted) is also survived via _heal."""
        job = ModelJob(network)
        x = _images(rng, 4)
        with _spawn_pool(job, 2) as pool:
            expected = pool.run(x)
            pool.kill_worker(0)
            np.testing.assert_array_equal(pool.run(x), expected)
            assert pool.healthy

    def test_kill_leaves_supervision_markers_in_trace(self, rng, network):
        """A SIGKILL recovery renders as instant events on the timeline.

        With ``repro.obs`` on, the supervisor's actions — worker death,
        respawn, job retry — must appear as fault-category instant events
        in the trace buffer, so a served request's recovery is auditable
        in the exported timeline, not just in the stats counters.
        """
        from repro import obs
        from repro.obs import trace as obs_trace
        job = ModelJob(network)
        x = _images(rng, 6)
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
# Pool-served network behind Server
# --------------------------------------------------------------------------- #
class TestServedPool:
    def test_delay_past_request_deadline_times_out_then_recovers(
            self, rng, network):
        """A slow worker fails the deadlined batch with RequestTimeout; the
        replaced worker serves the next batch correctly."""
        job = ModelJob(network)
        image = _images(rng, 1)[0]
        expected = BatchRunner(job).infer(image[None])[0]
        plan = FaultPlan().delay(worker=0, step=1, seconds=2.0)
        with _spawn_runner(job, 2, faults=plan) as runner, \
                Server(runner, max_batch_size=1, max_delay_ms=0) as server:
            doomed = server.submit(image, deadline=0.3)
            with pytest.raises(RequestTimeout):
                doomed.result(timeout=10)
            got = server.submit(image).result(timeout=10)
            assert server.stats()["timeouts"] == 1
            assert not runner.degraded
        np.testing.assert_array_equal(got, expected)

    def test_server_threads_take_turns_on_the_pool(self, rng, network):
        """Server(num_threads=2) drives one runner from two threads; each
        batch still gets its own results, bit-exact."""
        job = ModelJob(network)
        images = _images(rng, 32)
        with _spawn_runner(job, 2) as runner, \
                Server(runner, max_batch_size=1, max_delay_ms=0,
                       num_threads=2) as server:
            handles = [server.submit(image) for image in images]
            outs = [h.result(timeout=30) for h in handles]
            assert runner.pool_stats()["deaths"] == 0
        expected = BatchRunner(job).map([image[None] for image in images])
        for got, want in zip(outs, expected):
            np.testing.assert_array_equal(got, want[0])

    def test_overload_sheds_while_the_pool_is_busy(self, rng, network):
        job = ModelJob(network)
        images = _images(rng, 4)
        plan = FaultPlan().delay(worker=0, step=1, seconds=1.0)
        with _spawn_runner(job, 1, faults=plan) as runner, \
                Server(runner, max_batch_size=1, max_delay_ms=0,
                       max_pending=2) as server:
            first = server.submit(images[0])
            end = time.monotonic() + 10
            while server.batcher.pending() and time.monotonic() < end:
                time.sleep(0.005)              # the pool now holds `first`
            queued = [server.submit(image) for image in images[1:3]]
            with pytest.raises(ServerOverloaded):
                server.submit(images[3])
            outs = [h.result(timeout=10) for h in [first, *queued]]
            stats = server.stats()
        assert stats["shed"] >= 1 and stats["queue_high_watermark"] >= 2
        expected = BatchRunner(job).map([image[None] for image in images[:3]])
        for got, want in zip(outs, expected):
            np.testing.assert_array_equal(got, want[0])

    def test_cancel_skipped_and_retry_invisible_to_server(self, rng,
                                                          network):
        """A cancelled request never reaches the pool, and a chunk retried
        after a worker death is served bit-exactly, computed once by the
        server."""
        job = ModelJob(network)
        images = _images(rng, 3)
        plan = (FaultPlan().delay(worker=0, step=1, seconds=0.5)
                .kill(worker=0, step=2))
        with _spawn_runner(job, 1, faults=plan) as runner, \
                Server(runner, max_batch_size=1, max_delay_ms=0) as server:
            first = server.submit(images[0])
            end = time.monotonic() + 10
            while server.batcher.pending() and time.monotonic() < end:
                time.sleep(0.005)              # the pool now holds `first`
            victim = server.submit(images[1])
            assert victim.cancel()
            third = server.submit(images[2])
            outs = [first.result(timeout=10), third.result(timeout=10)]
            stats, pool = server.stats(), runner.pool_stats()
        assert stats["batches"] == 2 and stats["cancelled_skipped"] >= 1
        assert pool["deaths"] == 1 and pool["retried_jobs"] == 1
        expected = BatchRunner(job).map([images[0][None], images[2][None]])
        for got, want in zip(outs, expected):
            np.testing.assert_array_equal(got, want[0])


# --------------------------------------------------------------------------- #
# Graceful degradation when the pool is gone for good
# --------------------------------------------------------------------------- #
def _wipe_out(runner: BatchRunner) -> None:
    """Kill every worker of the runner's pool and forbid revival."""
    pool = runner._pool
    pool.supervisor.max_respawn_attempts = 0
    for index in range(pool.num_workers):
        pool.kill_worker(index)
    for worker in pool._workers:
        worker.proc.join(5)


class TestDegradation:
    def test_runner_degrades_inline_when_pool_unrevivable(self, rng,
                                                          network):
        job = ModelJob(network)
        x = _images(rng, 6)
        with _spawn_runner(job, 2) as runner:
            expected = runner.infer(x)                 # pooled
            _wipe_out(runner)
            got = runner.infer(x)                      # degrades mid-run
            assert runner.transport == "inline" and runner.degraded
            assert runner.pool_stats() == {}
            np.testing.assert_array_equal(got, expected)
            # Later calls keep working inline.
            np.testing.assert_array_equal(runner.infer(x), expected)

    def test_total_pool_loss_mid_serve_is_bit_identical(self, rng, network):
        """Through Server, a wiped-out pool degrades inside BatchRunner and
        the served results match the pool's bit for bit."""
        job = ModelJob(network)
        images = _images(rng, 6)

        def serve_round(server):
            # One batch of exactly six requests (the size cap releases it).
            handles = [server.submit(image) for image in images]
            return np.stack([h.result(timeout=30) for h in handles])

        with _spawn_runner(job, 2) as runner, \
                Server(runner, max_batch_size=6,
                       max_delay_ms=10_000) as server:
            pooled = serve_round(server)
            _wipe_out(runner)
            degraded = serve_round(server)
            assert runner.degraded
        np.testing.assert_array_equal(degraded, pooled)

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
