"""Traced run of every workload, written out as the per-layer table.

Runs ``run.py --trace 1`` once per workload (untraced half, then traced half
with the outside-in timers) and writes ``trace_table.md`` and
``trace_table.json`` into ``--out``.  Each row names the metric's unit, the
end-to-end metric and workloads it should move, the workloads it should not
move (bypass), whether the value is computed from shapes rather than timed,
and the value on every workload.  ``unattributed_share`` and
``trace.overhead_ratio`` are rows like any other, one value per workload.
Run from the repository root::

    python3 perfbench/trace_table.py --seed 1 --seconds 25 --out .bench_out
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from common import COMPUTED, PER_LAYER, WORKLOADS, invoke  # noqa: E402

# What each workload's ``unattributed_share`` leaves unexplained.
UNATTRIBUTED = {
    "serve_f4_inline":
        "open-phase request time outside generator lag, queue wait, kernel "
        "primitives and fan-out: the model's step glue (BN, pooling, residual "
        "joins, arena) between kernels",
    "serve_tapwise_pool":
        "open-phase request time outside lag, queue wait, pool transport "
        "overhead, worker kernels + fake quantization and fan-out: the "
        "workers' step glue",
    "int_tapwise_f4":
        "measured wall time outside the integer_winograd_conv2d calls: the "
        "pass loop and the output checks",
    "train_qat_dp":
        "step time minus the checkpoint commit and half of one inline "
        "forward+backward of the batch: encode, dispatch, apply, optimizer",
}


def traced_run(workload: str, seed: int, seconds: int) -> dict:
    result, info = invoke(workload, seed, seconds, trace=1)
    return {"result": result, "info": info}


def _names(workloads) -> str:
    return ", ".join(workloads) if workloads else "-"


def render(runs: dict) -> str:
    names = list(runs)
    head = ["metric", "unit", "better", "moves", "on", "bypass", "computed"] + names
    lines = ["| " + " | ".join(head) + " |", "|" + "---|" * len(head)]
    for name, unit, better, moves, on, bypass in PER_LAYER:
        values = [runs[w]["result"]["metrics"][name]["value"] for w in names]
        lines.append("| " + " | ".join(
            [name, unit, better, moves, _names(on), _names(bypass),
             "yes" if name in COMPUTED else "no"]
            + [f"{v:.4g}" for v in values]) + " |")
    lines += ["", "Unattributed share, per workload:", ""]
    lines += [f"- `{w}`: {runs[w]['result']['metrics']['unattributed_share']['value']:.3f}"
              f" — {UNATTRIBUTED[w]}" for w in names]
    lines += ["", "Bytes (`mb_per_op`, `frame_mb_per_step`) and "
              "`kernels.tile_contract.mmacs_per_op` are computed from array "
              "shapes, not measured.  A value of 0 means the workload does not "
              "exercise that layer.",
              "", "On `train_qat_dp`, `serve.pool.*_ms_p50` time the step's shard "
              "frames through a second pool of the same size after the timed "
              "window (the trainer's own pool is private), and "
              "`quant.fake_quant_ms_per_batch` is the `Quantizer.forward` time "
              "of one inline QAT forward of the batch."]
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--workloads", nargs="*", default=list(WORKLOADS))
    parser.add_argument("--out", default=os.path.join(ROOT, ".bench_out"))
    args = parser.parse_args(argv)
    runs = {}
    for w in args.workloads:
        runs[w] = traced_run(w, args.seed, args.seconds)
        print(f"{w}: traced, correct={runs[w]['result']['correct']}", flush=True)
    os.makedirs(args.out, exist_ok=True)
    table = render(runs)
    with open(os.path.join(args.out, "trace_table.md"), "w") as fh:
        fh.write(table)
    with open(os.path.join(args.out, "trace_table.json"), "w") as fh:
        json.dump(runs, fh, indent=1)
    print(table)
    return 0 if all(r["result"]["correct"] for r in runs.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
