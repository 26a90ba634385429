"""Tests of the benchmark's own helpers (``python -m pytest perfbench``)."""

from __future__ import annotations

import json
import math
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for path in (HERE, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

from common import (END_TO_END, PER_LAYER, UNIT_RE, WORKLOADS,  # noqa: E402
                    OutcomeCounter, chunked_percentile_ms, close_to,
                    highest_supported_percentile, image_choices,
                    latency_summary, percentile_ms, poisson_schedule,
                    valid_metric_name)


@pytest.mark.parametrize("n, expected", [
    (0, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0),
    (999, 90.0), (1000, 99.0), (9999, 99.0), (10000, 99.9), (100000, 99.99),
])
def test_highest_percentile_needs_ten_samples_beyond(n, expected):
    assert highest_supported_percentile(n) == expected


def test_latency_summary_reports_p99_only_when_supported():
    small = latency_summary(np.linspace(0.001, 0.002, 999))
    big = latency_summary(np.linspace(0.001, 0.002, 1000))
    assert small["n"] == 999 and "p99_ms" not in small
    assert small["top_percentile"] == 90.0
    assert big["top_percentile"] == 99.0 and "p99_ms" in big
    assert big["p50_ms"] == pytest.approx(1.5, rel=1e-3)


def test_chunked_percentile_ignores_a_burst_but_not_a_shift():
    rng = np.random.default_rng(0)
    base = [rng.uniform(0.004, 0.006, size=450) for _ in range(4)]
    clean = chunked_percentile_ms(base, 90, 150)
    burst = [part.copy() for part in base]
    burst[1][150:300] += 0.05                  # two chunks of 12 slowed down
    burst[2][:150] += 0.05
    assert chunked_percentile_ms(burst, 90, 150) == pytest.approx(clean, rel=0.02)
    assert percentile_ms(np.concatenate(burst), 90) > 5 * clean
    shifted = [part + 0.001 for part in base]
    assert chunked_percentile_ms(shifted, 90, 150) == pytest.approx(clean + 1.0)
    # The lower quartile over chunks reads the undisturbed ones.
    assert chunked_percentile_ms(burst, 90, 150, over=25) <= clean
    # A trailing partial chunk is dropped, unless it is all a part has.
    tail = [np.concatenate([np.full(150, 0.001), np.full(10, 1.0)])]
    assert chunked_percentile_ms(tail, 50, 150) == pytest.approx(1.0)
    assert chunked_percentile_ms([np.full(5, 0.002)], 90, 150) == pytest.approx(2.0)


def test_open_loop_schedule_is_seeded():
    a = poisson_schedule(7, 400.0, 5.0)
    b = poisson_schedule(7, 400.0, 5.0)
    c = poisson_schedule(8, 400.0, 5.0)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a[:100], c[:100])
    assert np.all(np.diff(a) > 0) and a[-1] < 5.0
    assert abs(a.size / 5.0 - 400.0) < 400.0 * 0.1
    np.testing.assert_array_equal(image_choices(7, 50, 128),
                                  image_choices(7, 50, 128))


def test_wrong_output_counts_as_failure():
    expected = np.linspace(-3.0, 3.0, 10)
    counter = OutcomeCounter()
    assert counter.check(close_to(expected + 1e-15, expected, 1e-9))
    assert not counter.check(close_to(expected + 1e-3, expected, 1e-9))
    assert not counter.check(close_to(expected[:9], expected, 1e-9))
    assert not counter.check(close_to(np.full(10, np.nan), expected, 1e-9))
    counter.fail("shed")
    assert (counter.attempted, counter.failed) == (5, 4)
    assert counter.kinds == {"wrong_output": 3, "shed": 1}
    assert counter.success_rate == pytest.approx(0.2)


def test_integer_workload_counts_a_wrong_output():
    from workloads import IntTapwiseF4, SetupClock
    workload = IntTapwiseF4(seed=3, trace=False)
    workload.setup(SetupClock())
    workload.expected[1][0] = workload.expected[1][0] + 2.0 ** -20
    counter = OutcomeCounter()
    workload.measure(0.3, counter)
    assert counter.attempted >= 1
    # Pass k checks pool batch k % 4; only batch 0's output of the second
    # layer was altered, so exactly the passes over batch 0 fail.
    assert counter.failed == math.ceil(counter.attempted / 4)
    assert counter.kinds == {"wrong_output": counter.failed}


def test_metric_names_and_benchmark_file_agree():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    names += [w["name"] for w in bench["workloads"]]
    assert all(valid_metric_name(n) for n in names)
    assert all(UNIT_RE.match(m["unit"])
               for m in bench["end_to_end"] + bench["per_layer"])
    assert len(set(names)) == len(names)
    assert not valid_metric_name("bad name") and not valid_metric_name("_x")
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in bench["end_to_end"]] == [tuple(row) for row in END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == [
        row[:3] for row in PER_LAYER]
    assert {w["name"] for w in bench["workloads"]} <= set(WORKLOADS)
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])
