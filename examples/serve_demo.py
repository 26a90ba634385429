"""Serving quickstart: compile a model, micro-batch requests, read the stats.

Walks the `repro.serve` subsystem end to end:

1. **Whole-model compilation** — a CIFAR ResNet is lowered into an immutable
   pipeline of plan-bound steps (weights pre-transformed, BatchNorm folded,
   ReLU fused, workspaces arena-allocated) and checked against the eager
   module graph. ``autotune="cached"`` pins the convolutions to the
   autotuned kernel tier and warms any per-shape winners persisted in
   ``~/.cache/repro-plans`` by earlier tuning runs (``autotune="full"`` or
   ``repro.engine.autotune.tune`` benchmarks and persists them).

   When a C toolchain is present, full-mode tuning also *generates*
   shape-specialized native kernels (``repro.kernels.codegen``) and
   benchmarks them against the blocked numpy variants; winners
   persist like any other choice and the built objects are cached in
   ``~/.cache/repro-codegen`` (``REPRO_CODEGEN_CACHE``), so later
   processes — and respawned pool workers — load them from disk without
   compiling. Set ``REPRO_CODEGEN=off`` (or have no compiler) and
   everything degrades bit-exactly to the numpy paths; the
   ``codegen_cache`` block in ``Server.stats()`` shows which happened.
2. **Micro-batched serving** — single-image requests submitted from client
   threads are coalesced into batches under a latency deadline and served;
   the server reports p50/p99 latency and throughput.
3. **Shared-memory sharding** — the same bound layer run inline and through
   ``BatchRunner``'s persistent shared-memory worker pool.
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
from repro.engine import BatchRunner, ConvJob, autotune
from repro.kernels import codegen
from repro.models.resnet_cifar import resnet_tiny
from repro.nn import Tensor
from repro.nn.tensor import no_grad
from repro.serve import FaultPlan, Server, ShmWorkerPool, compile_model
from repro.utils import seed_everything


def main() -> None:
    rng = seed_everything(0)

    # --- 1. whole-model compilation -----------------------------------------
    model = resnet_tiny()
    model.eval()
    # autotune="cached" serves on the `tuned` backend with whatever per-shape
    # kernel winners previous tuning runs persisted to disk; misses fall back
    # to the fast defaults without benchmarking (production-safe cold start).
    compiled = compile_model(model, input_shape=(8, 3, 32, 32),
                             autotune="cached")
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
    tuning = autotune.stats_dict()
    print(f"    autotune: mode={autotune.get_mode()}, "
          f"winners loaded from disk={tuning['loaded_records']}, "
          f"keys defaulted={tuning['default_keys']} "
          f"(tune(model, shape) benches + persists winners)")
    cg = codegen.stats_dict()
    print(f"    codegen: available={codegen.available()} "
          f"(REPRO_CODEGEN=off or a missing compiler falls back to numpy "
          f"bit-exactly), builds={cg['builds']}, "
          f"disk_hits={cg['disk_hits']}, warm_loads={cg['warm_loads']} "
          f"(autotune='full' builds + benchmarks specialized kernels)")

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

    # --- 3. shared-memory worker pool ---------------------------------------
    job = ConvJob(weight=rng.normal(size=(32, 32, 3, 3)), padding=1,
                  transform="F4")
    big = rng.normal(size=(8, 32, 32, 32))
    print("\n[3] BatchRunner inline vs shared-memory pool, batch of 8 "
          "(interleaved rounds, medians):")
    runners = {"inline": BatchRunner(job),
               "shm": BatchRunner(job, num_workers=2)}
    try:
        if runners["shm"].transport != "shm":        # sandboxed environments
            print("    shared-memory worker pool unavailable here; "
                  "sections [4] and [5] need it")
            return
        times = {name: [] for name in runners}
        for runner in runners.values():
            runner.run(big)                          # warm the workers
        for _ in range(7):
            for name, runner in runners.items():
                start = time.perf_counter()
                runner.run(big)
                times[name].append(time.perf_counter() - start)
        medians = {name: sorted(ts)[len(ts) // 2] for name, ts in times.items()}
        for name, median in medians.items():
            print(f"    {name:6s}: {median * 1e3:7.2f} ms/batch")
        print(f"    shared memory (2 workers) vs inline: "
              f"{medians['inline'] / medians['shm']:.2f}x")
    finally:
        for runner in runners.values():
            runner.close()

    # --- 4. fault injection: kill + corrupt, recover bit-exactly -------------
    print("\n[4] fault injection (scripted chaos, deterministic):")
    with ShmWorkerPool(job, num_workers=2) as clean_pool:
        expected = clean_pool.run(big, chunk_size=4)
    plan = FaultPlan().kill(worker=0, step=1).corrupt(worker=1, step=1)
    with ShmWorkerPool(job, num_workers=2, faults=plan) as chaos_pool:
        recovered = chaos_pool.run(big, chunk_size=4)
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
            pool.run(big, chunk_size=4)
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
    print(f"    Server.stats() is one registry snapshot: cache blocks "
          + ", ".join(f"{name}={stats[name]['hits']} hits"
                      for name in ("autotune", "plan_cache", "codegen_cache")))


if __name__ == "__main__":
    main()
