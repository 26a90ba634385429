"""Steadiness self-check: two time-separated sets of runs per workload.

Runs every chosen workload ``--runs`` times (seeds 1 .. runs) in each of two
sets, the workloads interleaved within a set and the sets separated by
``--gap`` seconds, the way a regression gate compares a
parent's runs with a change's.  For each end-to-end metric it prints the
median, the quartiles and the spread (q3 - q1) / median of every set, and
the set-to-set change of the median against the metric's bound from
``BENCHMARK.json``; ``host.probe_ms`` (a fixed GEMM + elementwise loop timed
before and after each run) and the share of CPU time the hypervisor stole
during the measured window are printed beside them to show how fast the
host ran.  Run from the repository root::

    python3 perfbench/steady.py --runs 10 --gap 60 --out .bench_out/steady.json

Exit code 1 when any spread (``setup_s`` excepted) exceeds its bound or any
set-to-set change is worse than its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from common import invoke, quartile_spread  # noqa: E402

SETS = 2


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_one(workload: str, seed: int, seconds: int) -> dict:
    result, info = invoke(workload, seed, seconds, trace=0)
    return {"metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "probe_ms": statistics.median(info["host_probe_ms"]),
            "steal": info["host_steal_share"],
            "correct": result["correct"], "failed": result["failed"]}


def worse_by(first: float, second: float, better: str) -> float:
    """Relative worsening of ``second`` against ``first`` (negative = better)."""
    if first == 0:
        return 0.0
    change = (second - first) / abs(first)
    return change if better == "lower" else -change


def main(argv=None) -> int:
    bench = load_benchmark()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--gap", type=float, default=60.0)
    parser.add_argument("--workloads", nargs="*",
                        default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--out", default=None, help="write all runs as JSON here")
    args = parser.parse_args(argv)

    sets = []
    for s in range(SETS):
        if s:
            time.sleep(args.gap)
        runs = {w: [] for w in args.workloads}
        for i in range(args.runs):
            for w in args.workloads:
                r = run_one(w, 1 + i, bench["run_seconds"])
                runs[w].append(r)
                print(f"set {s} run {i} {w}: " + " ".join(
                    f"{k}={v:.4g}" for k, v in r["metrics"].items())
                    + f" probe={r['probe_ms']:.3f}ms steal={r['steal']:.3f}"
                    + f" correct={r['correct']}",
                    flush=True)
        sets.append(runs)

    ok = True
    print()
    for w in args.workloads:
        print(f"== {w}")
        for spec in bench["end_to_end"]:
            name, bound, better = spec["name"], spec["bound"], spec["better"]
            stats = [quartile_spread([r["metrics"][name] for r in st[w]]) for st in sets]
            cells = [f"med={q['median']:.4g} q1={q['q1']:.4g} q3={q['q3']:.4g} "
                     f"spread={q['spread']:.3f}" for q in stats]
            flags = []
            if name != "setup_s" and any(q["spread"] > bound for q in stats):
                flags.append("SPREAD>BOUND")
            drift = [worse_by(stats[0]["median"], q["median"], better)
                     for q in stats[1:]]
            if any(d > bound for d in drift):
                flags.append("SET-TO-SET>BOUND")
            ok = ok and not flags
            print(f"  {name:16s} bound={bound:<5} " + " | ".join(cells)
                  + "".join(f" worse_by={d:+.3f}" for d in drift)
                  + (" " + " ".join(flags) if flags else ""))
        probes = [statistics.median(r["probe_ms"] for r in st[w]) for st in sets]
        steal = [statistics.median(r["steal"] for r in st[w]) for st in sets]
        print("  host.probe_ms    " + " | ".join(f"med={p:.4f}" for p in probes))
        print("  host steal share " + " | ".join(f"med={p:.3f}" for p in steal))
        failed = sum(r["failed"] for st in sets for r in st[w])
        print(f"  failed operations: {failed}")
        ok = ok and failed == 0
    if args.out:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "w") as fh:
            json.dump(sets, fh, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
