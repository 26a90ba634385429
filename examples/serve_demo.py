"""Serving quickstart: compile a model, micro-batch requests, read the stats.

Walks the `repro.serve` subsystem end to end:

1. **Whole-model compilation** — a CIFAR ResNet is lowered into an immutable
   pipeline of plan-bound steps (weights pre-transformed, BatchNorm folded,
   ReLU fused, workspaces arena-allocated) and checked against the eager
   module graph.
2. **Micro-batched serving** — single-image requests submitted from client
   threads are coalesced into batches under a latency deadline and served;
   the server reports p50/p99 latency and throughput.
3. **Pool-served network** — the same ResNet served through ``Server`` over
   a 2-worker ``BatchRunner(ModelJob(...))``: each persistent shared-memory
   worker compiles the network once, and the pooled result is bit-identical
   to the model run inline on the same chunks.
4. **Fault injection** — a scripted ``FaultPlan`` SIGKILLs and corrupts
   workers mid-batch; the supervisor respawns them, retries their chunks,
   and the recovered results are bit-identical to a fault-free run.
5. **Observability** — ``repro.obs`` traces the same traffic end to end
   (worker-side kernel spans stitched onto the parent's timeline over the
   control pipe), exports a Chrome-trace file for Perfetto, and attributes
   kernel wall time per layer plan via ``Server.stats()["profile"]``.

Run with:  PYTHONPATH=src python examples/serve_demo.py
"""

import os
import tempfile
import threading
import time

import numpy as np

from repro import obs
from repro.engine import BatchRunner
from repro.models.resnet_cifar import resnet_tiny
from repro.nn import Tensor
from repro.nn.tensor import no_grad
from repro.serve import (FaultPlan, ModelJob, Server, ShmWorkerPool,
                         compile_model)
from repro.serve.pool import chunk_bounds
from repro.utils import seed_everything


def main() -> None:
    rng = seed_everything(0)

    # --- 1. whole-model compilation -----------------------------------------
    model = resnet_tiny()
    model.eval()
    compiled = compile_model(model, input_shape=(8, 3, 32, 32))
    x = rng.normal(size=(8, 3, 32, 32))
    with no_grad():
        eager = model(Tensor(x)).data
    served = compiled.infer(x)
    print("[1] compiled model")
    for line in compiled.describe():
        print(f"    {line}")
    print(f"    max |compiled - eager| = {np.abs(served - eager).max():.2e}, "
          f"workspace arena = {compiled.workspace_nbytes / 1024:.0f} KiB "
          f"(reused every call)")

    # --- 2. micro-batched serving -------------------------------------------
    images = [rng.normal(size=(3, 32, 32)) for _ in range(48)]
    with Server(compiled, max_batch_size=8, max_delay_ms=2.0) as server:
        def client(chunk):
            for image in chunk:
                server.submit(image).result(timeout=30)

        threads = [threading.Thread(target=client, args=(images[i::4],))
                   for i in range(4)]
        start = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        elapsed = time.perf_counter() - start
        stats = server.stats()
    print(f"\n[2] served {stats['requests']} single-image requests from 4 "
          f"client threads in {elapsed * 1e3:.1f} ms")
    print(f"    batches={stats['batches']} "
          f"(mean batch size {stats['mean_batch_size']:.1f}), "
          f"p50={stats['latency_p50_ms']:.2f} ms, "
          f"p99={stats['latency_p99_ms']:.2f} ms, "
          f"{stats['throughput_rps']:.0f} req/s")

    # --- 3. a network served over the shared-memory worker pool -----------
    job = ModelJob(model)
    print("\n[3] resnet_tiny served through Server over a 2-worker "
          "BatchRunner:")
    with BatchRunner(job, num_workers=2) as runner:
        if runner.transport != "shm":                # sandboxed environments
            print("    shared-memory worker pool unavailable here; "
                  "sections [4] and [5] need it")
            return
        # A size cap of 8 with a long delay releases exactly one batch of 8.
        with Server(runner, max_batch_size=8, max_delay_ms=10_000) as server:
            handles = [server.submit(image) for image in x]
            pooled = np.stack([h.result(timeout=30) for h in handles])
            stats = server.stats()
    chunked = np.concatenate([compiled.infer(x[lo:hi])
                              for lo, hi in chunk_bounds(len(x), 2)])
    print(f"    batches={stats['batches']} (mean batch size "
          f"{stats['mean_batch_size']:.0f}), "
          f"p50={stats['latency_p50_ms']:.2f} ms")
    print(f"    pooled result bit-identical to the inline chunked model: "
          f"{np.array_equal(pooled, chunked)}")

    # --- 4. fault injection: kill + corrupt, recover bit-exactly -------------
    print("\n[4] fault injection (scripted chaos, deterministic):")
    with ShmWorkerPool(job, num_workers=2) as clean_pool:
        expected = clean_pool.run(x)
    plan = FaultPlan().kill(worker=0, step=1).corrupt(worker=1, step=1)
    with ShmWorkerPool(job, num_workers=2, faults=plan) as chaos_pool:
        recovered = chaos_pool.run(x)
        stats = chaos_pool.stats()
        print(f"    plan: SIGKILL worker 0 at its step 1, corrupt worker 1's "
              f"first reply payload")
        print(f"    deaths={stats['deaths']} restarts={stats['restarts']} "
              f"retried_jobs={stats['retried_jobs']} "
              f"corrupt_replies={stats['corrupt_replies']}")
        print(f"    pool healthy again: {chaos_pool.healthy} "
              f"({stats['live_workers']}/{stats['num_workers']} workers)")
        print(f"    recovered result bit-identical to fault-free run: "
              f"{np.array_equal(recovered, expected)}")

    # --- 5. observability: one stitched timeline + per-plan profiling --------
    # REPRO_OBS=on (or obs.enable()) turns on span tracing and kernel
    # profiling everywhere at once; a request served through the shm pool
    # renders as a single timeline — queue wait, batch assembly, dispatch,
    # and the per-layer kernel spans recorded *inside* the workers, shipped
    # back over the control pipe.  REPRO_TRACE=<path> exports at exit.
    print("\n[5] observability (repro.obs):")
    with obs.enabled_scope():
        with ShmWorkerPool(job, num_workers=2) as pool:
            pool.run(x)
        with Server(compiled, max_batch_size=8, max_delay_ms=2.0) as server:
            for image in images[:8]:
                server.submit(image)
            server.close()
            stats = server.stats()
        events = obs.trace.events_snapshot()
        trace_path = os.path.join(tempfile.gettempdir(), "serve_demo_trace.json")
        obs.export_trace(trace_path)
    pids = {e[5] for e in events}
    print(f"    {len(events)} events from {len(pids)} processes on one "
          f"monotonic timeline -> {trace_path}")
    print(f"    (open in https://ui.perfetto.dev or chrome://tracing)")
    for label, block in list(stats["profile"].items())[:3]:
        total_ms = block["total_s"] * 1e3
        prims = ", ".join(f"{name} x{p['calls']}"
                          for name, p in block["primitives"].items())
        print(f"    {total_ms:7.2f} ms  {label}  [{prims}]")
    plan_cache = stats["plan_cache"]
    print(f"    Server.stats() is one registry snapshot: plan_cache "
          f"{plan_cache['hits']} hits / {plan_cache['misses']} misses")


if __name__ == "__main__":
    main()
