"""End-to-end benchmark of the tap-wise quantized Winograd F4 reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload serve_f4_inline --seed 1 --seconds 35 --trace 0

Workloads (see ``common.WORKLOADS``): ``serve_f4_inline``,
``serve_tapwise_pool``, ``int_tapwise_f4`` and ``train_qat_dp``;
``BENCHMARK.json`` gates all but ``serve_tapwise_pool``.  The last line of
standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
(``{"info": ...}``) records the run's hygiene facts, sample counts, the
unreported-but-printed p99 and the host probe.

``--trace 0`` prints the end-to-end metrics.  The serving workloads alternate
16 open-loop phases (Poisson arrivals, latency timed from each request's
due time) with 16 closed-loop phases (16 callers, each waiting for its
reply).  Throughput is the upper quartile over cycles of the closed phases'
images per second; p50 and p90 are the open phases', each the lower quartile
over 150-request chunks of the chunk's percentile (host CPU steal comes in
bursts and only slows the program; see ``workloads._ServeWorkload.measure``).  During the open phases one
nice-19 spinner process per CPU keeps the vCPUs from idling (see
``workloads.KeepAwake``).  The closed-loop p50/p90 go to the info line and
the per-layer table.  The other workloads report images per second over the
whole window, the p50 of their passes or steps, and their p90 (for training
the median over 16-step rounds of each round's p90).

``--trace 1`` runs the workload twice in one process, untraced then traced,
each for half of ``--seconds``, and prints every per-layer metric: the traced
half wraps the calls into each layer from outside (kernel backends via
``KernelBackend.instrumented``, the model callable, the checkpoint store,
quantizers, pool round trips), and ``trace.overhead_ratio`` is its ``latency_p50_ms`` over the untraced half's.
Layers a workload does not exercise read 0.

``setup_s`` is the median over three set-ups: the run's own and two fresh
``--setup-only`` subprocesses, each timed from just before ``import repro``
until the workload is ready to serve.  Every set-up gets fresh, empty plan
and codegen cache directories inside the checkout, so it does not depend on
run order.
"""

from __future__ import annotations

import os
import sys

# Hygiene that must precede the first numpy import: one BLAS/OpenMP thread,
# observability off, the default kernel backend.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
for _var in ("REPRO_OBS", "REPRO_TRACE", "REPRO_KERNEL_BACKEND", "REPRO_AUTOTUNE",
             "REPRO_CODEGEN", "REPRO_CODEGEN_EMITTER"):
    os.environ.pop(_var, None)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

from common import (END_TO_END, PER_LAYER, WORKLOADS, OutcomeCounter,  # noqa: E402
                    latency_summary)

SETUP_REPEATS = 3
TMP_ROOT = os.path.join(ROOT, ".bench_tmp")


def fresh_dir(prefix: str) -> str:
    os.makedirs(TMP_ROOT, exist_ok=True)
    return tempfile.mkdtemp(prefix=prefix, dir=TMP_ROOT)


def point_caches(workdir: str) -> None:
    os.environ["REPRO_PLAN_CACHE"] = os.path.join(workdir, "plans")
    os.environ["REPRO_CODEGEN_CACHE"] = os.path.join(workdir, "codegen")


def host_probe(reps: int = 40) -> float:
    """Median ms of a fixed 128x128 GEMM plus an elementwise pass."""
    rng = np.random.default_rng(12345)
    a = rng.normal(size=(128, 128))
    b = rng.normal(size=(128, 128))
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        c = a @ b
        np.tanh(c, out=c)
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)


def cpu_ticks() -> tuple[int, int]:
    """(steal, total) jiffies of all CPUs from /proc/stat; (0, 0) elsewhere."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(v) for v in fh.readline().split()[1:9]]
    except (OSError, ValueError):
        return 0, 0
    return fields[7], sum(fields)


def _vm_hwm_kb(pid: str) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its live child processes (pool workers)."""
    kb = _vm_hwm_kb("self")
    if not kb:
        import resource
        kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = set()
    try:
        for tid in os.listdir("/proc/self/task"):
            with open(f"/proc/self/task/{tid}/children") as fh:
                children.update(fh.read().split())
    except OSError:
        pass
    kb += sum(_vm_hwm_kb(pid) for pid in children)
    return kb * 1024 / 1e6


def set_up(name: str, seed: int, trace: bool, workdir: str, clock):
    from workloads import make_workload
    workload = make_workload(name, seed, trace, workdir)
    try:
        workload.setup(clock)
    except BaseException:
        workload.close()
        raise
    return workload


def timed_import(clock) -> None:
    with clock.part("import"):
        import repro
    src = os.path.join(ROOT, "src") + os.sep
    if not os.path.abspath(repro.__file__).startswith(src):
        raise SystemExit(f"repro imported from {repro.__file__}, not from {src}")


def setup_only(name: str, seed: int) -> dict:
    from workloads import SetupClock
    clock = SetupClock()
    workdir = fresh_dir("setup-")
    try:
        point_caches(workdir)
        timed_import(clock)
        set_up(name, seed, False, workdir, clock).close()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {"setup_s": clock.total_s, "parts": clock.parts}


def setup_in_subprocess(name: str, seed: int) -> dict:
    """Time one set-up in a fresh interpreter, in a process group of its own.

    If it fails or runs out of time the whole group (its pool workers and
    resource tracker too) is killed, so nothing it started outlives it.
    """
    proc = subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), "--workload", name,
         "--seed", str(seed), "--setup-only"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True)
    try:
        out, err = proc.communicate(timeout=120)
    except BaseException:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode:
        raise subprocess.CalledProcessError(proc.returncode, proc.args, out, err)
    return json.loads(out.strip().splitlines()[-1])


def stop_helper_processes(timeout_s: float = 10.0) -> None:
    """Stop every process this run started and wait until each has ended.

    Workloads close their own pools and spinners; this catches what an error
    path left behind.  It then stops multiprocessing's resource tracker: the
    shared memory of ``ShmWorkerPool`` starts it as a child process that
    would otherwise outlive this one until it notices its pipe has closed.
    """
    import multiprocessing
    from multiprocessing import resource_tracker
    for proc in multiprocessing.active_children():
        proc.kill()
        proc.join()
    tracker = resource_tracker._resource_tracker
    if tracker._fd is None or tracker._pid is None:
        return
    os.close(tracker._fd)              # end of input: the tracker exits
    pid, tracker._fd, tracker._pid = tracker._pid, None, None
    deadline = time.monotonic() + timeout_s
    while os.waitpid(pid, os.WNOHANG) == (0, 0):
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            return
        time.sleep(0.01)


def run_once(name: str, seed: int, seconds: float, trace: bool, clock,
             counter: OutcomeCounter) -> dict:
    """Set up, measure and tear down one workload; returns numbers and facts."""
    workdir = fresh_dir("run-")
    point_caches(workdir)
    workload = None
    try:
        if trace:
            # Plans are interned by backend name; drop the untraced half's so
            # the traced half lowers its own with the instrumented backend.
            from repro.engine import clear_plan_cache
            clear_plan_cache()
        workload = set_up(name, seed, trace, workdir, clock)
        probes = [host_probe()]
        ops_before = counter.attempted
        ticks0 = cpu_ticks()
        result = workload.measure(seconds, counter)
        ticks1 = cpu_ticks()
        probes.append(host_probe())
        result["probes_ms"] = probes
        total = ticks1[1] - ticks0[1]
        result["steal_share"] = (ticks1[0] - ticks0[0]) / total if total else 0.0
        result["peak_rss_mb"] = peak_rss_mb()
        result["summary"] = latency_summary(result.pop("latency_s"))
        if trace:
            result["layers"] = workload.layer_metrics(counter.attempted - ops_before)
        return result
    finally:
        if workload is not None:
            workload.close()
        shutil.rmtree(workdir, ignore_errors=True)


def environment_facts(name: str) -> dict:
    from repro.kernels import codegen, get_backend
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    serving = name.startswith("serve")
    threads = 2 if serving else 1
    pool_workers = {"serve_tapwise_pool": 2, "train_qat_dp": 2}.get(name, 0)
    return {
        "nproc": os.cpu_count(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "codegen_available": bool(codegen.available()),
        "active_backend": get_backend().name,
        "python": sys.version.split()[0],
        "loadgen_plus_serving_threads": threads,
        "pool_workers": pool_workers,
        "keep_awake_spinners_nice19": (len(os.sched_getaffinity(0))
                                       if serving else 0),
        "within_nproc": max(threads, pool_workers) <= (os.cpu_count() or 1),
        "plan_cache": "fresh temp dir per set-up",
    }


def main(argv=None) -> int:
    try:
        return _main(argv)
    finally:
        stop_helper_processes()


def _main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up once, print the set-up time and exit")
    args = parser.parse_args(argv)

    if args.setup_only:
        print(json.dumps(setup_only(args.workload, args.seed)))
        return 0

    from workloads import SetupClock
    counter = OutcomeCounter()
    clock = SetupClock()
    timed_import(clock)                # cache directories are read lazily
    seconds = args.seconds / 2 if args.trace else args.seconds
    plain = run_once(args.workload, args.seed, seconds, False, clock, counter)
    setups = [clock.total_s] + [
        setup_in_subprocess(args.workload, args.seed)["setup_s"]
        for _ in range(SETUP_REPEATS - 1)]
    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment_facts(args.workload),
        "latency": plain["summary"], "facts": plain["facts"],
        "host_probe_ms": plain["probes_ms"], "host_steal_share": plain["steal_share"],
        "setup_samples_s": setups,
        "setup_parts_s": clock.parts, "failure_kinds": counter.kinds,
    }
    metrics = {
        "throughput_ips": plain["throughput_ips"],
        "latency_p50_ms": plain["latency_p50_ms"],
        "latency_p90_ms": plain["latency_p90_ms"],
        "success_rate": counter.success_rate,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": plain["peak_rss_mb"],
    }
    units = {name: unit for name, unit, _, _ in END_TO_END}
    if args.trace:
        traced = run_once(args.workload, args.seed, seconds, True, SetupClock(),
                          counter)
        layers = {name: 0.0 for name, *_ in PER_LAYER}
        layers.update({f"setup.{part}_s": value
                       for part, value in clock.parts.items()})
        layers.update(traced["layers"])
        for part in ("p50", "p90"):                 # serving: untraced half
            if f"closed_loop_{part}_ms" in plain["facts"]:
                layers[f"serve.closed_loop.latency_{part}_ms"] = \
                    plain["facts"][f"closed_loop_{part}_ms"]
        layers["host.probe_ms"] = statistics.median(plain["probes_ms"]
                                                    + traced["probes_ms"])
        layers["trace.overhead_ratio"] = (traced["latency_p50_ms"]
                                          / metrics["latency_p50_ms"])
        info["traced_latency"] = traced["summary"]
        info["traced_facts"] = traced["facts"]
        info["layers_not_exercised"] = sorted(
            name for name, value in layers.items() if value == 0)
        metrics = layers
        units = {name: unit for name, unit, *_ in PER_LAYER}
    info["failure_kinds"] = counter.kinds
    with contextlib.suppress(OSError):
        os.rmdir(TMP_ROOT)                 # only when no other run uses it
    print(json.dumps({"info": info}, default=float))
    print(json.dumps({
        "correct": counter.failed == 0,
        "attempted": counter.attempted,
        "failed": counter.failed,
        "metrics": {name: {"value": float(value), "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
