#!/usr/bin/env python
"""Kernel micro-benchmark harness: reference vs fast backend, planned vs eager.

Runs the library's computational kernels (im2col convolution, Winograd
F2/F4 forward, Winograd-aware autograd step, integer tap-wise path) under
both registered kernel backends, plus the execution-plan layer's planned
executor against the eager composed path, and writes ``BENCH_kernels.json``
with median wall-clock times and speedup ratios, so the repo's performance
trajectory is tracked from PR to PR.

Usage::

    PYTHONPATH=src python benchmarks/run_bench.py [--output PATH]
        [--serve-output PATH] [--repeats N] [--warmup N] [--smoke] [--check]
        [--trace DIR]

Acceptance numbers (same 4x32x32x32 input, 32 output channels, F4):

* ``winograd_f4_forward``: the ``fast`` backend must stay >= 2x faster than
  ``reference``.
* ``planned_f4_forward``: the planned executor (bound CompiledConv streaming
  repeated same-shape batches through a cached LayerPlan) must be >= 1.3x
  faster than the eager composed tensor path — the per-stage autograd graph
  every forward used before :mod:`repro.engine` existed, rebuilt here from
  the backend primitives.  Both measurements are interleaved round by round
  (paired ratios) for robustness on loaded machines.
* ``qat_f4_fused_autograd``: one tap-wise QAT F4 layer's fused
  forward+backward node against the same layer on the composed graph with
  its Winograd-domain quantizers as separate nodes (recorded, not gated).

Serving-layer numbers (PR 5, written to ``BENCH_serve.json``):

* ``served_model_f4``: steady-state ``CompiledModel`` inference (BN folded,
  ReLU fused, plan-keyed workspace arena) must be >= 1.2x over the same
  network run as per-layer CompiledConv + BN + ReLU steps.
* ``shm_pool_batch{4,8}``: the persistent shared-memory worker pool must
  beat a plain pickling ``multiprocessing.Pool`` at batch <= 8.
* ``shm_pool_supervision_overhead`` (PR 6): the supervised pool (heartbeats,
  sentinel watching, retry bookkeeping) must stay within 5% of the same pool
  with supervision disabled (``heartbeat_interval=None``, the bare PR 5
  wire) — fault tolerance must not tax the fast path.

Training-layer numbers (PR 8, written to ``BENCH_train.json``):

* ``dp_train_step_scaling`` — one :class:`repro.train.DataParallelTrainer`
  gradient step (4 supervised shm workers) vs the identical single-process
  step; must be >= 1.5x on machines with >= 4 cores (``cpu_cores`` is
  recorded alongside the ratio).
* ``dp_train_supervision_overhead`` — the supervised 4-worker sharded step
  vs the same pool with supervision off; must stay <= 1.05x everywhere.

Observability numbers (PR 10, written to ``BENCH_serve.json``):

* ``obs_overhead_serve`` — steady-state ``CompiledModel`` inference with
  ``repro.obs`` fully on (span tracing + per-plan kernel profiling) vs the
  same model with observability off; must stay <= 1.05x — tracing a healthy
  server may not tax it.

``--trace DIR`` turns observability on for the whole run and writes one
Chrome-trace JSON file per benchmark case into ``DIR`` (load them in
Perfetto / ``chrome://tracing``).  The committed BENCH json files are
generated *without* ``--trace`` so the published numbers stay untraced;
the ``meta.obs`` block records which mode produced a given file.

``--smoke`` runs everything with tiny repeat counts and exits 0 regardless
of the measured ratios — the CI plumbing check, not a perf gate.

``--check`` compares a fresh run against the *committed* BENCH json files
instead of overwriting them: any ``speedup_*`` ratio that drops more than
15% below its committed value (or ``overhead_*`` ratio that rises more than
15% above) fails the run.  This is the CI regression gate; combined with
``--smoke`` it still exits 0.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time

_HERE = os.path.dirname(os.path.abspath(__file__))
_SRC = os.path.join(os.path.dirname(_HERE), "src")
for _path in (_HERE, _SRC):
    if os.path.isdir(_path) and _path not in sys.path:
        sys.path.insert(0, _path)

import numpy as np  # noqa: E402

from repro.kernels import available_backends, get_backend, use_backend  # noqa: E402
from repro.nn.functional import conv2d_numpy  # noqa: E402
from repro.nn.tensor import Tensor  # noqa: E402
from repro.quant import (calibrate_tapwise_scales,  # noqa: E402
                         integer_winograd_conv2d)
from repro.winograd import (assemble_output_tiles,  # noqa: E402
                            pad_for_tiling, winograd_conv2d,
                            winograd_conv2d_tensor, winograd_f2, winograd_f4)

import staged_winograd as staged  # noqa: E402

# Acceptance workload: 4x32x32x32 input, 32 output channels, 3x3 kernels.
_RNG = np.random.default_rng(0)
X = _RNG.normal(size=(4, 32, 32, 32))
W = _RNG.normal(size=(32, 32, 3, 3))
GRAD = _RNG.normal(size=(4, 32, 32, 32))


def _timed_call(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _autograd_step():
    x = Tensor(X, requires_grad=True)
    w = Tensor(W, requires_grad=True)
    out = winograd_conv2d_tensor(x, w, winograd_f4(), padding=1)
    out.backward(GRAD)


def _integer_case():
    scales = calibrate_tapwise_scales(X, W, winograd_f4(), power_of_two=True)

    def run():
        integer_winograd_conv2d(X, W, winograd_f4(), scales)

    return run


CASES = {
    "im2col_forward": lambda: conv2d_numpy(X, W, None, 1, 1),
    "winograd_f2_forward": lambda: winograd_conv2d(X, W, winograd_f2(), None, 1),
    "winograd_f4_forward": lambda: winograd_conv2d(X, W, winograd_f4(), None, 1),
    "winograd_f4_autograd_fwd_bwd": _autograd_step,
    "integer_tapwise_f4": _integer_case(),
}


# --------------------------------------------------------------------------- #
# Planned executor vs eager composed path
# --------------------------------------------------------------------------- #
def _composed_winograd(x, w, transform, padding=1, input_hook=None,
                       weight_hook=None):
    """The eager baseline: every Winograd stage its own autograd node.

    Tile extraction, the ``BT x B`` / ``G f GT`` / ``AT y A`` pair
    transforms, the tap contraction and the output assembly — the graph
    every forward ran before :mod:`repro.engine`, and the tap-wise QAT layer
    ran with its Winograd-domain quantizers as the two hooks until they
    moved into the fused kernel.  The pair transforms run on the active
    backend; the staged kernels are ``fast``'s (:mod:`staged_winograd`).
    """
    be, t = get_backend(), transform
    m, r = t.m, t.r
    padded, out_h, out_w = pad_for_tiling(x.data, m, r, padding)
    h, wd = x.shape[2], x.shape[3]

    def untile(g):
        dx = staged.scatter_tiles_add(g, padded.shape, m, r)
        return (dx[:, :, padding:padding + h, padding:padding + wd],)

    def pair(tt, left, right):
        return Tensor.from_op(
            be.apply_transform_pair(tt.data, left, right), (tt,),
            lambda g: (be.apply_transform_pair(g, left.T, right.T),))

    tiles_w = pair(Tensor.from_op(staged.extract_tiles(padded, m, r), (x,), untile),
                   t.BT, t.B)
    weight_w = pair(w, t.G, t.G.T)
    if input_hook is not None:
        tiles_w = input_hook(tiles_w)
    if weight_hook is not None:
        weight_w = weight_hook(weight_w)
    xw, ww = tiles_w.data, weight_w.data
    prod = Tensor.from_op(
        staged.tile_contract(xw, ww), (tiles_w, weight_w),
        lambda g: (staged.tile_contract_dx(g, ww), staged.tile_contract_dw(g, xw)))
    out_tiles = pair(prod, t.AT, t.A)
    n, cout, n_h, n_w = out_tiles.shape[:4]

    def tile(g):
        full = np.zeros((n, cout, n_h * m, n_w * m))
        full[:, :, :out_h, :out_w] = g
        return (np.ascontiguousarray(full.reshape(
            n, cout, n_h, m, n_w, m).transpose(0, 1, 2, 4, 3, 5)),)

    return Tensor.from_op(assemble_output_tiles(out_tiles.data, out_h, out_w),
                          (out_tiles,), tile)


def _calibrated_qat_layer():
    """A tap-wise power-of-two F4 QAT layer with the acceptance weights,
    calibrated on the acceptance input."""
    from repro.quant import QuantWinogradConv2d

    layer = QuantWinogradConv2d(W.shape[1], W.shape[0], bias=False,
                                transform="F4", power_of_two=True)
    layer.weight.data = W.copy()
    layer(Tensor(X))
    return layer


def planned_vs_eager_cases(repeats: int, warmup: int) -> dict:
    """Paired-round medians of the planned executor against the eager path.

    * ``planned_f4_forward`` — a :class:`repro.engine.CompiledConv` (weights
      pre-transformed once, plan interned in the shared cache) streaming the
      acceptance workload, vs the composed tensor forward
      (:func:`_composed_winograd`, the pre-engine behaviour).
    * ``planned_f4_fused_autograd`` — the engine's fused single-node
      forward+backward vs the composed five-node graph's forward+backward.
    * ``qat_f4_fused_autograd`` — a tap-wise QAT layer's forward+backward
      (one fused node with the fake quantization inside) vs the same layer
      on the composed graph with its quantizers as hooks.
    """
    from repro.engine import CompiledConv, clear_plan_cache

    clear_plan_cache()
    compiled = CompiledConv(W, padding=1, transform="F4")

    def planned_forward():
        compiled(X)

    def eager_forward():
        _composed_winograd(Tensor(X), Tensor(W), winograd_f4())

    def planned_autograd():
        x = Tensor(X, requires_grad=True)
        w = Tensor(W, requires_grad=True)
        out = winograd_conv2d_tensor(x, w, winograd_f4(), padding=1)
        out.backward(GRAD)

    def eager_autograd():
        x = Tensor(X, requires_grad=True)
        w = Tensor(W, requires_grad=True)
        _composed_winograd(x, w, winograd_f4()).backward(GRAD)

    fused_layer, composed_layer = _calibrated_qat_layer(), _calibrated_qat_layer()

    def fused_qat():
        fused_layer(Tensor(X, requires_grad=True)).backward(GRAD)

    def composed_qat():
        layer = composed_layer
        x = layer.act_quant(Tensor(X, requires_grad=True))
        _composed_winograd(x, layer.weight_quant(layer.weight), layer.transform,
                           input_hook=layer.input_wino_quant,
                           weight_hook=layer.weight_wino_quant).backward(GRAD)

    results = {}
    pairs = {
        "planned_f4_forward": (planned_forward, eager_forward),
        "planned_f4_fused_autograd": (planned_autograd, eager_autograd),
        "qat_f4_fused_autograd": (fused_qat, composed_qat),
    }
    for case_name, (planned_fn, eager_fn) in pairs.items():
        for _ in range(warmup):
            planned_fn()
            eager_fn()
        planned_times, eager_times = [], []
        # Interleaved rounds, same methodology as run_benchmarks.
        for _ in range(repeats):
            planned_times.append(_timed_call(planned_fn))
            eager_times.append(_timed_call(eager_fn))
        ratios = [e / p for p, e in zip(planned_times, eager_times) if p > 0]
        case = {
            "planned_s": float(statistics.median(planned_times)),
            "eager_s": float(statistics.median(eager_times)),
            "speedup_planned_vs_eager": float(statistics.median(ratios)),
        }
        results[case_name] = case
        print(f"{case_name:32s} " + "  ".join(
            f"{k}={v:.6f}" if k.endswith("_s") else f"{k}={v:.2f}x"
            for k, v in case.items()))
        _maybe_trace(case_name)
    return results


# --------------------------------------------------------------------------- #
# Serving layer (repro.serve): compiled models and the shm worker pool
# --------------------------------------------------------------------------- #
def _paired_case(fast_fn, slow_fn, repeats: int, warmup: int,
                 fast_key: str, slow_key: str, ratio_key: str) -> dict:
    """Interleaved paired rounds (same methodology as run_benchmarks); the
    ratio is the median of per-round ratios."""
    for _ in range(warmup):
        fast_fn()
        slow_fn()
    fast_times, slow_times = [], []
    for _ in range(repeats):
        fast_times.append(_timed_call(fast_fn))
        slow_times.append(_timed_call(slow_fn))
    ratio = statistics.median(
        s / f for f, s in zip(fast_times, slow_times) if f > 0)
    return {
        fast_key: float(statistics.median(fast_times)),
        slow_key: float(statistics.median(slow_times)),
        ratio_key: float(ratio),
    }


# Set by main() when --trace DIR is given; every finished case then flushes
# the span buffer into its own Chrome-trace file.
_TRACE_DIR: str | None = None


def _maybe_trace(name: str) -> None:
    """Flush the span buffer accumulated by one case into DIR/<name>.json."""
    if _TRACE_DIR is None:
        return
    from repro.obs import trace as _obs_trace
    _obs_trace.export(os.path.join(_TRACE_DIR, f"{name}.json"), clear=True)


def _print_case(name: str, case: dict) -> None:
    print(f"{name:32s} " + "  ".join(
        f"{k}={v:.6f}" if k.endswith("_s") else
        (f"{k}={v:.2f}x" if isinstance(v, float) else f"{k}={v}")
        for k, v in case.items()))
    _maybe_trace(name)


def _bind_per_layer_compiledconv(model) -> None:
    """Replace every conv module's forward with a bound CompiledConv call.

    This reconstructs the *pre-serve* way to serve a model: each convolution
    goes through its own weight-bound :class:`repro.engine.CompiledConv`
    (plans cached, weights pre-transformed), while BatchNorm / ReLU / pooling
    / linear layers still execute through the eager module graph.
    """
    from repro.engine import CompiledConv
    from repro.nn.layers import Conv2d

    for module in model.modules():
        if isinstance(module, Conv2d):
            transform = ("F4" if module.kernel_size == 3 and module.stride == 1
                         else None)
            compiled = CompiledConv(
                module.weight.data,
                None if module.bias is None else module.bias.data,
                stride=module.stride, padding=module.padding,
                transform=transform)

            def forward(x, _cc=compiled):
                return Tensor(_cc(x.data))

            module.forward = forward


# Per-worker compiled job of the pickling-pool baseline in serve_cases.
_PICKLE_CONV = None


def _pickle_pool_init(job) -> None:
    global _PICKLE_CONV
    from repro.obs import trace
    trace.suppress_export()     # workers never write the parent's trace file
    _PICKLE_CONV = job.compile()


def _pickle_pool_chunk(x: np.ndarray) -> np.ndarray:
    return _PICKLE_CONV(x)


def serve_cases(repeats: int, warmup: int) -> dict:
    """Benchmarks of the serving layer (PR 5), paired round by round.

    * ``served_model_f4`` — a fully-optimised CompiledModel (BN folding,
      ReLU fusion, workspace arena, bound weights) against the same network
      served as **per-layer CompiledConv calls** (bound convolutions inside
      the eager module graph — the pre-serve serving strategy).
    * ``shm_pool_batch{4,8}`` — the shared-memory pool head to head with a
      plain pickling ``multiprocessing.Pool`` on a ``ModelJob`` over a
      one-conv F4 model (the bound layer ``W``), persistent pools, same
      chunking.
    """
    from repro.engine import clear_plan_cache
    from repro.models.resnet_cifar import resnet_tiny
    from repro.nn.layers import Conv2d
    from repro.nn.module import Sequential
    from repro.nn.tensor import no_grad
    from repro.serve import ModelJob, ShmWorkerPool, compile_model
    from repro.serve.pool import chunk_bounds

    results = {}
    clear_plan_cache()

    # -- CompiledModel vs per-layer CompiledConv ---------------------------- #
    model = resnet_tiny(seed=0)
    model.eval()
    batch = _RNG.normal(size=(8, 3, 32, 32))
    served = compile_model(model, (8, 3, 32, 32))
    per_layer_model = resnet_tiny(seed=0)        # same weights (same seed)
    per_layer_model.eval()
    _bind_per_layer_compiledconv(per_layer_model)

    def run_per_layer():
        with no_grad():
            per_layer_model(Tensor(batch))

    case = _paired_case(lambda: served.infer(batch), run_per_layer,
                        repeats, warmup, "served_s", "per_layer_s",
                        "speedup_served_vs_per_layer")
    results["served_model_f4"] = case
    _print_case("served_model_f4", case)

    # -- observability overhead (PR 10) ------------------------------------- #
    # The same steady-state CompiledModel with repro.obs fully on (span
    # tracing into the ring buffer + per-plan kernel profiling through the
    # wrapped backends) against itself with observability off.  Gated
    # <= 1.05x like supervision: tracing a healthy server may not tax it.
    from repro import obs

    def run_without_obs():
        # Explicitly off (not "whatever the global state is") so the baseline
        # stays honest when the whole run is traced via --trace; both sides
        # pay the same scope-toggle cost.
        with obs.enabled_scope(False):
            served.infer(batch)

    def run_with_obs():
        with obs.enabled_scope():
            served.infer(batch)

    case = _paired_case(run_without_obs, run_with_obs,
                        repeats, warmup, "off_s", "obs_s",
                        "overhead_obs_vs_off")
    results["obs_overhead_serve"] = case
    _print_case("obs_overhead_serve", case)

    # -- shm pool vs a plain pickling multiprocessing.Pool ------------------ #
    conv = Conv2d(32, 32, 3, padding=1, bias=False)
    conv.weight.data = W
    job = ModelJob(Sequential(conv), transform="F4")
    try:
        shm_pool = ShmWorkerPool(job, num_workers=2)
    except Exception as exc:  # pragma: no cover - sandboxed environments
        results["shm_pool"] = {"skipped": f"{type(exc).__name__}: {exc}"}
        print(f"shm pool benchmark skipped: {exc}")
        return results
    import multiprocessing
    fork = "fork" in multiprocessing.get_all_start_methods()
    ctx = multiprocessing.get_context("fork" if fork else None)
    pickle_pool = ctx.Pool(2, initializer=_pickle_pool_init, initargs=(job,))
    try:
        for n in (4, 8):
            x = _RNG.normal(size=(n, 32, 32, 32))
            chunks = [x[lo:hi] for lo, hi in chunk_bounds(n, 2)]

            def run_shm():
                shm_pool.run(x)

            def run_pickle():
                np.concatenate(pickle_pool.map(_pickle_pool_chunk, chunks),
                               axis=0)

            case = _paired_case(run_shm, run_pickle, repeats, warmup,
                                "shm_s", "pickle_s",
                                "speedup_shm_vs_pickle")
            results[f"shm_pool_batch{n}"] = case
            _print_case(f"shm_pool_batch{n}", case)

        # -- supervision overhead (PR 6) -------------------------------- #
        # The default pool above runs fully supervised (heartbeats, sentinel
        # watching, retry bookkeeping); pair it against the same pool with
        # supervision switched off to isolate what fault tolerance costs on
        # the fault-free fast path.
        bare_pool = ShmWorkerPool(job, num_workers=2, heartbeat_interval=None)
        try:
            x = _RNG.normal(size=(8, 32, 32, 32))
            case = _paired_case(lambda: bare_pool.run(x),
                                lambda: shm_pool.run(x),
                                repeats, warmup, "bare_s", "supervised_s",
                                "overhead_supervised_vs_bare")
            results["shm_pool_supervision_overhead"] = case
            _print_case("shm_pool_supervision_overhead", case)
        finally:
            bare_pool.close()
    finally:
        shm_pool.close()
        pickle_pool.close()
        pickle_pool.join()
    return results


# --------------------------------------------------------------------------- #
# Training layer (repro.train): data-parallel gradient steps (PR 8)
# --------------------------------------------------------------------------- #
def train_cases(repeats: int, warmup: int) -> dict:
    """Benchmarks of data-parallel training (PR 8), paired round by round.

    * ``dp_train_step_scaling`` — one sharded gradient step of
      :class:`repro.train.DataParallelTrainer` (4 supervised shm workers,
      forward+backward in the workers, host-side accumulation) against the
      identical single-process step.  The >= 1.5x acceptance target applies
      on machines with >= 4 cores; ``cpu_cores`` is recorded so the measured
      ratio is auditable in context (a 1-core container *cannot* show
      parallel speedup — the workers time-slice one core and the ratio
      honestly reads the sharding overhead instead).
    * ``dp_train_supervision_overhead`` — the same 4-worker sharded step with
      full supervision (heartbeats, sentinel watching, retry bookkeeping)
      against the pool with supervision off (``heartbeat_interval=None``).
      Must stay <= 1.05x everywhere: fault tolerance may not tax training.
    """
    from repro.datasets.synthetic import make_shapes_dataset
    from repro.models.small import TinyConvNet
    from repro.nn.data import ArrayDataset, DataLoader
    from repro.nn.optim import SGD
    from repro.train import DataParallelTrainer, Trainer
    from repro.utils import seed_everything

    num_workers = 4
    raw = make_shapes_dataset(num_samples=64, num_classes=10, size=32, seed=0)
    images, labels = raw.images[:16], raw.labels[:16]

    def build(workers: int, **kwargs):
        seed_everything(0)
        model = TinyConvNet(num_classes=10, seed=0)
        loader = DataLoader(ArrayDataset(raw.images, raw.labels),
                            batch_size=16, shuffle=True, seed=0)
        optimizer = SGD(model.parameters(), lr=0.05, momentum=0.9)
        if workers:
            return DataParallelTrainer(model, optimizer, loader,
                                       num_workers=workers, **kwargs)
        return Trainer(model, optimizer, loader, **kwargs)

    results = {}
    single = build(0)
    supervised = build(num_workers)
    bare = build(num_workers, heartbeat_interval=None)
    if supervised.degraded or bare.degraded:  # pragma: no cover - sandboxes
        supervised.close()
        bare.close()
        results["dp_train"] = {"skipped": "worker pool unavailable"}
        print("dp train benchmark skipped: worker pool unavailable")
        return results
    try:
        case = _paired_case(lambda: supervised._compute_step(images, labels),
                            lambda: single._compute_step(images, labels),
                            repeats, warmup, "dp4_s", "single_s",
                            "speedup_dp4_vs_single")
        case["cpu_cores"] = int(os.cpu_count() or 1)
        case["num_workers"] = num_workers
        results["dp_train_step_scaling"] = case
        _print_case("dp_train_step_scaling", case)

        case = _paired_case(lambda: bare._compute_step(images, labels),
                            lambda: supervised._compute_step(images, labels),
                            repeats, warmup, "bare_s", "supervised_s",
                            "overhead_supervised_vs_bare")
        results["dp_train_supervision_overhead"] = case
        _print_case("dp_train_supervision_overhead", case)
    finally:
        supervised.close()
        bare.close()
    return results


def run_benchmarks(repeats: int, warmup: int) -> dict:
    backends = [b for b in ("reference", "fast") if b in available_backends()]
    results = {}
    for case_name, fn in CASES.items():
        times = {name: [] for name in backends}
        for name in backends:
            with use_backend(name):
                for _ in range(warmup):
                    fn()
        # Interleave the backends round by round so that bursts of external
        # CPU contention (shared machines) hit both measurements equally; the
        # speedup is then the median of the *per-round paired* ratios, which
        # is robust to load shifting between rounds.
        for _ in range(repeats):
            for name in backends:
                with use_backend(name):
                    times[name].append(_timed_call(fn))
        case = {f"{name}_s": float(statistics.median(ts))
                for name, ts in times.items()}
        if "reference_s" in case and "fast_s" in case and case["fast_s"] > 0:
            ratios = [ref_t / fast_t for ref_t, fast_t
                      in zip(times["reference"], times["fast"]) if fast_t > 0]
            case["speedup_fast_vs_reference"] = float(statistics.median(ratios))
        results[case_name] = case
        print(f"{case_name:32s} " + "  ".join(
            f"{k}={v:.6f}" if k.endswith("_s") else f"{k}={v:.2f}x"
            for k, v in case.items()))
        _maybe_trace(case_name)
    return results


def _load_baseline(path: str) -> dict | None:
    """Committed results of one BENCH json file, or None when unreadable."""
    try:
        with open(path) as fh:
            data = json.load(fh)
        results = data.get("results")
        return results if isinstance(results, dict) else None
    except (OSError, ValueError):
        return None


def check_regressions(baseline: dict, fresh: dict, label: str,
                      tolerance: float = 0.15) -> list[str]:
    """Compare a fresh run against committed numbers; return problem strings.

    Every ``speedup_*`` ratio in the baseline must stay within ``tolerance``
    below its committed value; every ``overhead_*`` ratio within ``tolerance``
    above.  A case or ratio present in the baseline but missing from the
    fresh run is itself a failure — a silently-dropped benchmark must not
    read as a pass.  Cases either side *explicitly* recorded as skipped
    (a ``{"skipped": reason}`` entry, e.g. the shm pool cases where shared
    memory is unavailable) are announced, not silently dropped, and are
    ignored.
    """
    problems = []
    for case_name, base_case in baseline.items():
        if not isinstance(base_case, dict) or "skipped" in base_case:
            continue
        fresh_case = fresh.get(case_name)
        if isinstance(fresh_case, dict) and "skipped" in fresh_case:
            continue
        if not isinstance(fresh_case, dict):
            problems.append(f"{label}:{case_name}: missing from fresh run")
            continue
        for key, base_val in base_case.items():
            if not isinstance(base_val, (int, float)):
                continue
            lower = key.startswith("speedup_")
            if not lower and not key.startswith("overhead_"):
                continue
            fresh_val = fresh_case.get(key)
            pct = int(round(tolerance * 100))
            if not isinstance(fresh_val, (int, float)):
                problems.append(f"{label}:{case_name}.{key}: missing from "
                                "fresh run")
            elif lower and fresh_val < base_val * (1.0 - tolerance):
                drop = (1.0 - fresh_val / base_val) * 100.0
                problems.append(
                    f"{label}:{case_name}.{key}: measured {fresh_val:.2f}x "
                    f"is {drop:.0f}% below committed {base_val:.2f}x "
                    f"(tolerance {pct}%) | committed={base_val:.2f}x "
                    f"measured={fresh_val:.2f}x")
            elif not lower and fresh_val > base_val * (1.0 + tolerance):
                rise = (fresh_val / base_val - 1.0) * 100.0
                problems.append(
                    f"{label}:{case_name}.{key}: measured {fresh_val:.2f}x "
                    f"is {rise:.0f}% above committed {base_val:.2f}x "
                    f"(tolerance {pct}%) | committed={base_val:.2f}x "
                    f"measured={fresh_val:.2f}x")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--output", default=os.path.join(os.path.dirname(_HERE),
                                                         "BENCH_kernels.json"))
    parser.add_argument("--serve-output",
                        default=os.path.join(os.path.dirname(_HERE),
                                             "BENCH_serve.json"))
    parser.add_argument("--train-output",
                        default=os.path.join(os.path.dirname(_HERE),
                                             "BENCH_train.json"))
    parser.add_argument("--repeats", type=int, default=15)
    parser.add_argument("--warmup", type=int, default=2)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny repeat counts, no perf gating (CI plumbing "
                             "check)")
    parser.add_argument("--check", action="store_true",
                        help="compare against the committed BENCH json files "
                             "(>15% regression fails) instead of overwriting "
                             "them")
    parser.add_argument("--trace", metavar="DIR", default=None,
                        help="enable repro.obs for the whole run and write "
                             "one Chrome-trace JSON file per case into DIR")
    args = parser.parse_args(argv)
    if args.smoke:
        args.repeats = min(args.repeats, 3)
        args.warmup = min(args.warmup, 1)

    from repro import obs
    from repro.engine import plan_cache_stats

    if args.trace:
        global _TRACE_DIR
        os.makedirs(args.trace, exist_ok=True)
        _TRACE_DIR = args.trace
        obs.enable()

    baselines = {}
    if args.check:
        for path in (args.output, args.serve_output, args.train_output):
            baseline = _load_baseline(path)
            if baseline is None:
                print(f"--check: no readable baseline at {path}")
                return 0 if args.smoke else 1
            baselines[path] = baseline

    meta = {
        "workload": {"input": list(X.shape), "weight": list(W.shape),
                     "padding": 1},
        "repeats": args.repeats,
        "warmup": args.warmup,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "backend": get_backend(None).name,
    }

    def meta_now() -> dict:
        """Meta plus live cache counters at write time (satellite 2)."""
        pc = plan_cache_stats()
        return dict(meta,
                    plan_cache={"hits": pc.hits, "misses": pc.misses,
                                "evictions": pc.evictions, "size": pc.size},
                    obs=dict(obs.status(), trace_dir=args.trace))

    results = run_benchmarks(args.repeats, args.warmup)
    results.update(planned_vs_eager_cases(args.repeats, args.warmup))
    if not args.check:
        with open(args.output, "w") as fh:
            json.dump({"meta": meta_now(), "results": results}, fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.output}")

    serve_results = serve_cases(args.repeats, args.warmup)
    if not args.check:
        with open(args.serve_output, "w") as fh:
            json.dump({"meta": meta_now(), "results": serve_results}, fh,
                      indent=2)
            fh.write("\n")
        print(f"wrote {args.serve_output}")

    train_results = train_cases(args.repeats, args.warmup)
    if not args.check:
        with open(args.train_output, "w") as fh:
            json.dump({"meta": meta_now(), "results": train_results}, fh,
                      indent=2)
            fh.write("\n")
        print(f"wrote {args.train_output}")

    if args.check:
        problems = (check_regressions(baselines[args.output], results,
                                      "kernels")
                    + check_regressions(baselines[args.serve_output],
                                        serve_results, "serve")
                    + check_regressions(baselines[args.train_output],
                                        train_results, "train"))
        for problem in problems:
            print(f"REGRESSION {problem}")
        if not problems:
            print("--check: no regressions against committed baselines")
        if args.smoke:
            return 0
        return 1 if problems else 0

    headline = results.get("winograd_f4_forward", {})
    speedup = headline.get("speedup_fast_vs_reference", 0.0)
    planned = results.get("planned_f4_forward", {}).get(
        "speedup_planned_vs_eager", 0.0)
    served = serve_results.get("served_model_f4", {}).get(
        "speedup_served_vs_per_layer", 0.0)
    pool_cases = [case for name, case in serve_results.items()
                  if name.startswith("shm_pool_batch")]
    # No measured cases (shm skipped) must fail the gate, not pass vacuously.
    pool_ok = bool(pool_cases) and all(
        case.get("speedup_shm_vs_pickle", 0.0) > 1.0 for case in pool_cases)
    overhead = serve_results.get("shm_pool_supervision_overhead", {}).get(
        "overhead_supervised_vs_bare")
    overhead_ok = overhead is not None and overhead <= 1.05
    obs_overhead = serve_results.get("obs_overhead_serve", {}).get(
        "overhead_obs_vs_off")
    obs_overhead_ok = obs_overhead is not None and obs_overhead <= 1.05
    dp_case = train_results.get("dp_train_step_scaling", {})
    dp_speedup = dp_case.get("speedup_dp4_vs_single")
    cores = int(os.cpu_count() or 1)
    # The parallel-scaling target only binds where parallelism is physically
    # possible; a skipped or sub-4-core measurement must still be *present*.
    dp_ok = dp_speedup is not None and (cores < 4 or dp_speedup >= 1.5)
    train_overhead = train_results.get("dp_train_supervision_overhead",
                                       {}).get("overhead_supervised_vs_bare")
    train_overhead_ok = train_overhead is not None and train_overhead <= 1.05
    print(f"headline winograd_f4_forward speedup: {speedup:.2f}x (target >= 2x)")
    print(f"headline planned_f4_forward speedup:  {planned:.2f}x (target >= 1.3x)")
    print(f"headline served_model_f4 speedup:     {served:.2f}x (target >= 1.2x)")
    print(f"shm pool beats pickle at batch <= 8:  {pool_ok}")
    if overhead is not None:
        print(f"supervision overhead:                 {overhead:.3f}x "
              "(target <= 1.05x)")
    if obs_overhead is not None:
        print(f"observability overhead:               {obs_overhead:.3f}x "
              "(target <= 1.05x)")
    if dp_speedup is not None:
        print(f"dp training step speedup (4 workers): {dp_speedup:.2f}x "
              f"on {cores} core(s) (target >= 1.5x when cores >= 4)")
    if train_overhead is not None:
        print(f"dp training supervision overhead:     {train_overhead:.3f}x "
              "(target <= 1.05x)")
    if args.smoke:
        return 0
    return 0 if (speedup >= 2.0 and planned >= 1.3
                 and served >= 1.2 and pool_ok and overhead_ok
                 and obs_overhead_ok
                 and dp_ok and train_overhead_ok) else 1


if __name__ == "__main__":
    raise SystemExit(main())
