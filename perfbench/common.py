"""Pure helpers of the end-to-end benchmark: statistics, schedules, checks.

Nothing here imports :mod:`repro` or starts a thread, so the benchmark's own
tests (``test_perfbench.py``) exercise these rules without building a model;
:func:`invoke` runs ``run.py`` in a child process for ``steady.py`` and ``trace_table.py``.
The metric tables at the bottom are the single source for the names printed
by ``run.py``, the table written by ``trace_table.py`` and the entries of
``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import math
import os
import re
import statistics
import subprocess
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

METRIC_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def valid_metric_name(name: str) -> bool:
    """Names use letters, digits, ``_``, ``.`` and ``-`` only (max 64)."""
    return bool(METRIC_NAME_RE.match(name))


# --------------------------------------------------------------------------- #
# Percentiles
# --------------------------------------------------------------------------- #
PERCENTILE_LADDER = (50.0, 90.0, 99.0, 99.9, 99.99)


def highest_supported_percentile(n: int, min_beyond: int = 10,
                                 ladder=PERCENTILE_LADDER) -> float | None:
    """The highest ladder percentile with at least ``min_beyond`` samples above it.

    A percentile ``p`` of ``n`` samples has ``n * (1 - p/100)`` samples beyond
    it; below ``min_beyond`` of them the estimate rests on a handful of
    outliers and is not reported.  ``None`` when even the median is
    unsupported.
    """
    best = None
    for p in ladder:
        if n * (1.0 - p / 100.0) >= min_beyond - 1e-9:
            best = p
    return best


def percentile_ms(samples_s, p: float) -> float:
    """``p``-th percentile of second-valued samples, in milliseconds."""
    return float(np.percentile(np.asarray(samples_s, dtype=np.float64), p)) * 1e3


def latency_summary(samples_s) -> dict:
    """Median, p90 and the highest supported percentile, with the sample count."""
    arr = np.asarray(samples_s, dtype=np.float64)
    n = int(arr.size)
    out = {"n": n}
    if n == 0:
        return out
    out["p50_ms"] = percentile_ms(arr, 50)
    out["p90_ms"] = percentile_ms(arr, 90)
    top = highest_supported_percentile(n)
    if top is not None:
        out["top_percentile"] = top
        out["top_ms"] = percentile_ms(arr, top)
    if n * 0.01 >= 10:
        out["p99_ms"] = percentile_ms(arr, 99)
    return out


def chunked_percentile_ms(parts, p: float, size: int, over: float = 50.0) -> float:
    """The ``over``-th percentile over ``size``-sample chunks of each chunk's ``p``-th, in ms.

    Every array in ``parts`` (one per phase, samples in time order) is cut
    into consecutive chunks of ``size`` samples; a trailing partial chunk is
    dropped unless it is all a part has.  A burst of host CPU steal spoils
    the chunks it falls in, and host noise only ever adds time, so a low
    ``over`` reads the undisturbed chunks; a change that slows every
    operation moves every chunk.
    """
    values = []
    for part in parts:
        arr = np.asarray(part, dtype=np.float64)
        starts = range(0, max(arr.size - size + 1, 1), size)
        values += [percentile_ms(arr[i:i + size], p) for i in starts if arr.size]
    return float(np.percentile(values, over))


def quartile_spread(values) -> dict:
    """Median, first/third quartile and (q3 - q1) / median of ``values``."""
    vals = [float(v) for v in values]
    med = statistics.median(vals)
    if len(vals) >= 2:
        q1, _, q3 = statistics.quantiles(vals, n=4)
    else:
        q1 = q3 = vals[0]
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else math.inf}


# --------------------------------------------------------------------------- #
# Load generation
# --------------------------------------------------------------------------- #
def poisson_schedule(seed: int, rate_per_s: float, duration_s: float,
                     stream: int = 0) -> np.ndarray:
    """Due times (seconds from phase start) of a seeded Poisson arrival process."""
    rng = np.random.default_rng([int(seed), int(stream), 0x5EED])
    expected = int(rate_per_s * duration_s * 1.3) + 64
    gaps = rng.exponential(1.0 / rate_per_s, size=expected)
    due = np.cumsum(gaps)
    while due[-1] < duration_s:                 # pragma: no cover - 1.3x headroom
        more = np.cumsum(rng.exponential(1.0 / rate_per_s, size=expected))
        due = np.concatenate([due, due[-1] + more])
    return due[due < duration_s]


def image_choices(seed: int, n: int, pool_size: int, stream: int = 0) -> np.ndarray:
    """Which pool image each of ``n`` requests sends (seeded, uniform)."""
    rng = np.random.default_rng([int(seed), int(stream), 0xC0DE])
    return rng.integers(0, pool_size, size=n)


# --------------------------------------------------------------------------- #
# Output checks
# --------------------------------------------------------------------------- #
class OutcomeCounter:
    """Operations attempted and failed; every failure kind counts once.

    An operation fails when it raised, was shed or expired, or returned an
    output that does not match the expected one.  ``success_rate`` is the
    share of attempted operations that returned a correct output.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.kinds: dict[str, int] = {}

    def ok(self, n: int = 1) -> None:
        self.attempted += n

    def fail(self, kind: str, n: int = 1) -> None:
        self.attempted += n
        self.failed += n
        self.kinds[kind] = self.kinds.get(kind, 0) + n

    def check(self, good: bool, kind: str = "wrong_output") -> bool:
        if good:
            self.ok()
        else:
            self.fail(kind)
        return good

    @property
    def success_rate(self) -> float:
        if not self.attempted:
            return 0.0
        return (self.attempted - self.failed) / self.attempted


def close_to(actual, expected, rtol: float) -> bool:
    """Every element within ``rtol`` times the expected output's magnitude."""
    actual = np.asarray(actual)
    expected = np.asarray(expected)
    if actual.shape != expected.shape or not np.all(np.isfinite(actual)):
        return False
    scale = max(float(np.abs(expected).max()), 1.0)
    return float(np.abs(actual - expected).max()) <= rtol * scale


def invoke(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """Run ``run.py`` once in a subprocess; returns (result line, info block)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["info"]


# --------------------------------------------------------------------------- #
# Metric tables
# --------------------------------------------------------------------------- #
# All workloads run.py knows.  BENCHMARK.json gates three of them;
# serve_tapwise_pool stays runnable and traced but is not gated: its
# throughput and latency track the hypervisor's CPU steal across runs.  The
# pool-transport and fake-quant layers it exercises are also measured on
# train_qat_dp.
WORKLOADS = {
    "serve_f4_inline":
        "float resnet_tiny on the fused F4 forward, served in-process by "
        "Server; open-loop Poisson phases alternate with 16-outstanding closed ones",
    "serve_tapwise_pool":
        "the paper's tap-wise int8 F4 model served through a 2-worker "
        "ShmWorkerPool: fake-quant replay steps and the shm transport",
    "int_tapwise_f4":
        "integer_winograd_conv2d with power-of-two tap-wise scales at batch 8, "
        "one ResNet-20 layer per 3x3 stride-1 geometry",
    "train_qat_dp":
        "QAT of the tap-wise F4 resnet_tiny with DataParallelTrainer over 2 "
        "workers and a checkpoint commit every step",
}

# name, unit, better, bound
END_TO_END = [
    ("throughput_ips", "img/s", "higher", 0.25),
    ("latency_p50_ms", "ms", "lower", 0.25),
    ("latency_p90_ms", "ms", "lower", 0.25),
    ("success_rate", "ratio", "higher", 0.01),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

SERVE = ("serve_f4_inline", "serve_tapwise_pool")
POOLED = ("serve_tapwise_pool", "train_qat_dp")
ALL = tuple(WORKLOADS)
_NOT_SERVE = ("int_tapwise_f4", "train_qat_dp")

# name, unit, better, moves (e2e metric -> workloads), bypass workloads
KERNEL_PRIMITIVES = ("winograd_forward", "tile_contract", "apply_transform_pair",
                     "extract_tiles", "im2col", "conv2d_gemm")
_KERNEL_MOVES = {
    "winograd_forward": ("throughput_ips", ("serve_f4_inline",),
                         ("int_tapwise_f4", "serve_tapwise_pool")),
    "tile_contract": ("throughput_ips", ("int_tapwise_f4", "serve_tapwise_pool"),
                      ("serve_f4_inline",)),
    "apply_transform_pair": ("throughput_ips",
                             ("int_tapwise_f4", "serve_tapwise_pool"), ()),
    "extract_tiles": ("throughput_ips", ("int_tapwise_f4", "serve_tapwise_pool"),
                      ()),
    "im2col": ("throughput_ips", ("serve_f4_inline", "serve_tapwise_pool"),
               ("int_tapwise_f4",)),
    "conv2d_gemm": ("throughput_ips", ("serve_f4_inline", "serve_tapwise_pool"),
                    ("int_tapwise_f4",)),
}


def _per_layer_table() -> list[tuple]:
    rows = [
        (f"setup.{part}_s", "s", "lower", "setup_s", ALL, ())
        for part in ("import", "build", "compile", "pool_spawn", "warmup")
    ]
    rows += [
        ("serve.closed_loop.latency_p50_ms", "ms", "lower", "throughput_ips",
         SERVE, _NOT_SERVE),
        ("serve.closed_loop.latency_p90_ms", "ms", "lower", "throughput_ips",
         SERVE, _NOT_SERVE),
        ("loadgen.lag_p90_ms", "ms", "lower", "latency_p90_ms", SERVE, _NOT_SERVE),
        ("serve.batcher.queue_wait_p50_ms", "ms", "lower", "latency_p50_ms",
         SERVE, _NOT_SERVE),
        ("serve.batcher.queue_wait_p90_ms", "ms", "lower", "latency_p90_ms",
         SERVE, _NOT_SERVE),
        ("serve.batcher.batch_size_mean.open", "rows", "higher",
         "latency_p50_ms", SERVE, _NOT_SERVE),
        ("serve.batcher.batch_size_mean.closed", "rows", "higher",
         "throughput_ips", SERVE, _NOT_SERVE),
        ("serve.batcher.shed", "count", "lower", "success_rate", SERVE,
         _NOT_SERVE),
        ("serve.batcher.expired", "count", "lower", "success_rate", SERVE,
         _NOT_SERVE),
        ("serve.server.fanout_p50_ms", "ms", "lower", "latency_p50_ms", SERVE,
         _NOT_SERVE),
        ("serve.model.infer_ms.b1", "ms", "lower", "latency_p50_ms", SERVE,
         _NOT_SERVE),
        ("serve.model.infer_ms.b8", "ms", "lower", "throughput_ips", SERVE,
         _NOT_SERVE),
        ("serve.model.busy_share.open", "ratio", "lower", "latency_p90_ms",
         SERVE, _NOT_SERVE),
        ("serve.model.busy_share.closed", "ratio", "lower", "throughput_ips",
         SERVE, _NOT_SERVE),
        ("serve.model.kernel_share", "ratio", "higher", "throughput_ips",
         ("serve_f4_inline",), ("int_tapwise_f4",)),
    ]
    for prim in KERNEL_PRIMITIVES:
        e2e, moves, bypass = _KERNEL_MOVES[prim]
        rows += [
            (f"kernels.{prim}.ms_per_op", "ms", "lower", e2e, moves, bypass),
            (f"kernels.{prim}.calls_per_op", "count", "lower", e2e, moves, bypass),
            (f"kernels.{prim}.mb_per_op", "MB", "lower", e2e, moves, bypass),
        ]
    rows += [
        ("kernels.tile_contract.mmacs_per_op", "count", "lower", "-", (), ()),
        ("engine.plan_cache.steady_misses", "count", "lower", "latency_p90_ms",
         SERVE, ()),
        ("engine.plan_cache.hit_ratio", "ratio", "higher", "latency_p90_ms",
         SERVE, ()),
        ("engine.arena.workspace_mb", "MB", "lower", "peak_rss_mb",
         ("serve_f4_inline",), ("int_tapwise_f4", "train_qat_dp")),
        ("serve.pool.call_ms_p50", "ms", "lower", "latency_p50_ms",
         POOLED, ("serve_f4_inline", "int_tapwise_f4")),
        ("serve.pool.worker_ms_p50", "ms", "lower", "throughput_ips",
         POOLED, ("serve_f4_inline", "int_tapwise_f4")),
        ("serve.pool.overhead_ms_p50", "ms", "lower", "latency_p50_ms",
         POOLED, ("serve_f4_inline", "int_tapwise_f4")),
        ("serve.pool.retried_jobs", "count", "lower", "success_rate",
         POOLED, ("serve_f4_inline", "int_tapwise_f4")),
        ("serve.pool.deaths", "count", "lower", "success_rate",
         POOLED, ("serve_f4_inline", "int_tapwise_f4")),
        ("serve.pool.corrupt_replies", "count", "lower", "success_rate",
         POOLED, ("serve_f4_inline", "int_tapwise_f4")),
    ]
    rows += [
        (f"quant.integer.ms_per_pass.{geom}", "ms", "lower", "throughput_ips",
         ("int_tapwise_f4",), SERVE)
        for geom in ("c16x32", "c32x16", "c64x8")
    ]
    rows += [
        ("quant.integer.self_share", "ratio", "lower", "throughput_ips",
         ("int_tapwise_f4",), SERVE),
        ("quant.integer.accumulator_bits", "bits", "lower", "-", (), ()),
        ("quant.fake_quant_ms_per_batch", "ms", "lower", "latency_p50_ms",
         POOLED, ("serve_f4_inline", "int_tapwise_f4")),
        ("train.commit_ms_p50", "ms", "lower", "latency_p50_ms",
         ("train_qat_dp",), SERVE + ("int_tapwise_f4",)),
        ("nn.fwd_bwd_ms", "ms", "lower", "throughput_ips", ("train_qat_dp",),
         SERVE + ("int_tapwise_f4",)),
        ("train.frame_mb_per_step", "MB", "lower", "throughput_ips",
         ("train_qat_dp",), SERVE + ("int_tapwise_f4",)),
        ("train.unattributed_ms_p50", "ms", "lower", "throughput_ips",
         ("train_qat_dp",), SERVE + ("int_tapwise_f4",)),
        ("host.probe_ms", "ms", "lower", "-", (), ()),
        ("trace.overhead_ratio", "ratio", "lower", "-", (), ()),
        ("unattributed_share", "ratio", "lower", "-", (), ()),
    ]
    return rows


PER_LAYER = _per_layer_table()

# How each per-layer metric is measured; the traced run writes this beside the
# values so the table reads on its own.
COMPUTED = {"kernels.tile_contract.mmacs_per_op", "train.frame_mb_per_step"} | {
    f"kernels.{p}.mb_per_op" for p in KERNEL_PRIMITIVES}
