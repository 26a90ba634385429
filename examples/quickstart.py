"""Quickstart: tap-wise quantized Winograd F4 convolution in five minutes.

This walks through the paper's core idea on a single layer:

1. a float Winograd F(4x4, 3x3) convolution is bit-exact with im2col — and
   both run through the lower-then-execute API: the layer shape is compiled
   once into a cached LayerPlan, and a weight-bound CompiledConv streams
   batches through the plan without re-planning or re-transforming weights;
2. quantizing the Winograd domain with ONE scale per transformation destroys
   precision (Challenge I of the paper);
3. tap-wise, power-of-two scales recover it;
4. the same computation runs with integer-only arithmetic (what the
   accelerator executes);
5. the accelerator model predicts the layer-level speed-up and energy gain
   (planning each distinct layer shape once, like the engine does);
6. training on the same stack is fault-tolerant: crash-safe checkpoints
   resume bit-exactly, and gradient steps shard across the supervised
   worker pool with inline degradation when the pool is lost;
7. everything above is observable: ``repro.obs`` traces spans across
   processes onto one timeline, and attributes kernel wall time per layer
   plan — free when off, one env var (``REPRO_OBS=on``) to turn on.

Run with:  python examples/quickstart.py
"""

import tempfile

import numpy as np

from repro.accelerator import AcceleratorSystem
from repro.datasets.synthetic import make_shapes_dataset
from repro.engine import CompiledConv, lower_winograd, plan_cache_stats
from repro.models.layer_specs import Conv2DSpec
from repro.models.small import MicroNet
from repro.nn import Tensor
from repro.nn.data import ArrayDataset, DataLoader
from repro.nn.functional import conv2d_numpy
from repro.nn.optim import SGD
from repro.quant import (QuantWinogradConv2d, calibrate_tapwise_scales,
                         integer_winograd_conv2d)
from repro.train import CheckpointStore, DataParallelTrainer, Trainer
from repro.utils import print_table, seed_everything
from repro.winograd import bit_growth, macs_reduction, winograd_conv2d, winograd_f4


def relative_error(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.abs(a - b).mean() / np.abs(b).mean())


def weights_equal(a: dict, b: dict) -> bool:
    return set(a) == set(b) and all(np.array_equal(a[k], b[k]) for k in a)


def fault_tolerant_training() -> None:
    """[6] crash-safe checkpoints, deterministic resume, sharded steps."""
    raw = make_shapes_dataset(num_samples=24, num_classes=4, size=8, seed=0)

    def build(store=None):
        seed_everything(0)
        loader = DataLoader(ArrayDataset(raw.images, raw.labels),
                            batch_size=12, shuffle=True, seed=0)
        model = MicroNet(num_classes=4, seed=0)
        return model, Trainer(model, SGD(model.parameters(), lr=0.05,
                                         momentum=0.9), loader, store=store)

    # Reference: three epochs, never interrupted.
    ref_model, reference = build()
    reference.fit(epochs=3)

    # The same run "crashing" after one epoch.  Every step commits an atomic,
    # checksummed checkpoint (model, optimizer slots, schedulers, and every
    # RNG stream), so a fresh trainer — stand-in for a fresh process after
    # kill -9 — resumes from the committed boundary and finishes bit-exactly.
    with tempfile.TemporaryDirectory() as ckpt_dir:
        _, interrupted = build(CheckpointStore(ckpt_dir))
        interrupted.fit(epochs=1)                      # "crash" here
        resumed_model, resumed = build(CheckpointStore(ckpt_dir))
        step = resumed.resume()
        resumed.fit(epochs=3)
    print(f"\n[6] crash-safe training: resumed at step {step}, final weights "
          f"bit-equal to the\n    uninterrupted run: "
          f"{weights_equal(ref_model.state_dict(), resumed_model.state_dict())}")

    # Data-parallel steps: each step's gradients shard across supervised
    # shared-memory pool workers as pure-function frames with boundaries
    # fixed by the worker count — worker death, stalls and corrupt replies
    # are retried bit-exactly, and losing the whole pool mid-run degrades to
    # inline execution of the same frames with identical results.  Here the
    # pool is dropped up front; tests/test_train_faults.py runs the real
    # SIGKILL/stall/corruption drills.
    def build_dp(**kwargs):
        seed_everything(0)
        loader = DataLoader(ArrayDataset(raw.images, raw.labels),
                            batch_size=12, shuffle=True, seed=0)
        model = MicroNet(num_classes=4, seed=0)
        return model, DataParallelTrainer(
            model, SGD(model.parameters(), lr=0.05, momentum=0.9), loader,
            num_workers=2, **kwargs)

    pooled_model, pooled = build_dp()
    with pooled:
        pooled.fit(epochs=3)
        stats = pooled.pool_stats()
        mode = ("inline (pool unavailable)" if pooled.degraded
                else f"2 workers, {stats['deaths']} deaths, "
                     f"{stats['retried_jobs']} retries")
    inline_model, inline = build_dp()
    inline.close()                       # total pool loss, up front
    inline.fit(epochs=3)
    print(f"    data-parallel trainer ({mode}): weights bit-equal to the "
          f"pool-less run: {weights_equal(pooled_model.state_dict(), inline_model.state_dict())}")


def main() -> None:
    rng = seed_everything(0)
    transform = winograd_f4()
    print(f"Winograd {transform.name}: {transform.alpha}x{transform.alpha} taps, "
          f"{macs_reduction(transform):.2f}x fewer MACs than direct convolution")
    print(f"bit growth of a bit-true implementation: {bit_growth(transform)} "
          f"(why naive int8 fails)\n")

    # --- 1. float equivalence, lower-then-execute ----------------------------
    x = rng.normal(size=(2, 32, 28, 28))
    w = rng.normal(size=(48, 32, 3, 3)) * 0.1
    reference = conv2d_numpy(x, w, padding=1)       # im2col, planned internally
    wino = winograd_conv2d(x, w, transform, padding=1)
    print(f"[1] float Winograd vs im2col   : max |diff| = "
          f"{np.abs(wino - reference).max():.2e}")

    # The same layer as an explicit plan + bound executor: the plan is interned
    # in the process-wide cache (the eager call above already lowered it), and
    # CompiledConv pre-transforms the weights once so a stream of same-shape
    # batches does no per-call planning or weight-transform work at all.
    plan = lower_winograd(x.shape, w.shape, transform, padding=1)
    compiled = CompiledConv(w, padding=1, transform=transform)
    out_planned = compiled(x)
    stats = plan_cache_stats()
    print(f"    lower-then-execute         : plan {plan.kind}/{plan.transform.name} "
          f"tiles={plan.n_h}x{plan.n_w}, max |diff| = "
          f"{np.abs(out_planned - wino).max():.2e}  "
          f"(plan cache: {stats.hits} hits / {stats.misses} misses)")

    # --- 2. vs 3. layer-wise vs tap-wise quantization ------------------------
    rows = []
    for label, tapwise in (("single scale per transform", False),
                           ("tap-wise power-of-two scales", True)):
        layer = QuantWinogradConv2d(32, 48, transform="F4", tapwise=tapwise,
                                    power_of_two=True)
        layer.weight.data = w.copy()
        layer.bias.data[:] = 0.0
        out = layer(Tensor(x)).data
        rows.append([label, relative_error(out, reference)])
    print_table(["winograd-domain quantization", "relative error vs FP32"], rows,
                title="[2/3] Challenge I: one scale cannot cover all taps", digits=4)

    # --- 4. integer-only execution -------------------------------------------
    scales = calibrate_tapwise_scales(x, w, transform, power_of_two=True)
    out_int, stats = integer_winograd_conv2d(x, w, transform, scales,
                                             return_stats=True)
    print(f"\n[4] integer-only tap-wise Winograd: relative error "
          f"{relative_error(out_int, reference):.4f}, accumulator needs "
          f"{stats['accumulator_bits']} bits (fits the int32 Cube Unit)")

    # --- 5. accelerator prediction --------------------------------------------
    system = AcceleratorSystem()
    spec = Conv2DSpec("quickstart", cin=256, cout=256, kernel=3, stride=1,
                      out_h=56, out_w=56)
    baseline = system.run_layer(spec, batch=8, algorithm="im2col")
    f4 = system.run_layer(spec, batch=8, algorithm="F4")
    print(f"\n[5] accelerator model, 8x56x56x256->256 3x3 layer:")
    print(f"    im2col : {baseline.total_cycles:12.0f} cycles, "
          f"{baseline.energy_uj:8.1f} uJ")
    print(f"    F4     : {f4.total_cycles:12.0f} cycles, {f4.energy_uj:8.1f} uJ")
    print(f"    speed-up {baseline.total_cycles / f4.total_cycles:.2f}x, "
          f"energy gain {baseline.energy_uj / f4.energy_uj:.2f}x")
    # Layer plans are memoized per shape: re-pricing the same layer is free.
    system.run_layer(spec, batch=8, algorithm="F4")
    print(f"    ({system.plan_cache_size} layer plans cached; repeated "
          f"run_layer calls on the same shape reuse them)")

    # --- 6. fault-tolerant training ------------------------------------------
    fault_tolerant_training()

    # --- 7. observability -----------------------------------------------------
    # obs.enable() (or REPRO_OBS=on) turns on span tracing + kernel
    # profiling everywhere; both are free when off.  Re-running the compiled
    # layer now attributes its kernel wall time per plan, and the recorded
    # spans export as Chrome trace JSON (obs.export_trace / REPRO_TRACE).
    from repro import obs
    with obs.enabled_scope():
        compiled(x)
        profile = obs.profile.report()
        n_events = len(obs.trace.events_snapshot())
    label, block = next(iter(profile.items()))
    prim = next(iter(block["primitives"].values()))
    print(f"\n[7] observability: {n_events} trace events recorded; kernel "
          f"time attributed per plan:\n    {label}\n    -> "
          f"{prim['calls']} call(s), {block['total_s'] * 1e3:.2f} ms total "
          f"(obs.export_trace(path) writes the Perfetto timeline)")

    print("\nNext: whole-model serving — compilation, micro-batching and the "
          "shared-memory\nworker pool live in repro.serve; see "
          "examples/serve_demo.py for the walkthrough.\nThe training-side "
          "fault drills (worker SIGKILL, trainer kill -9 + resume, total\n"
          "pool loss) live in tests/test_train_faults.py.")


if __name__ == "__main__":
    main()
