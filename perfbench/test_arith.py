"""Tests of the benchmark's own arithmetic and checks.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import math
import pathlib
import statistics
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import arith  # noqa: E402
import hostprobe  # noqa: E402
import mixes  # noqa: E402
import run  # noqa: E402

VERSIONS = {w: ("omp_for", "cxx_thread", "mpi") for w in mixes.SERVE_WORKLOADS}


# ---------------------------------------------------------------------------
# percentiles and spreads
# ---------------------------------------------------------------------------
def test_percentile_interpolates_between_closest_ranks():
    xs = [4.0, 1.0, 3.0, 2.0]
    assert arith.percentile(xs, 0) == 1.0
    assert arith.percentile(xs, 100) == 4.0
    assert arith.percentile(xs, 50) == 2.5
    assert arith.percentile(xs, 90) == pytest.approx(3.7)
    assert arith.percentile([7.0], 95) == 7.0


def test_percentile_matches_median_and_rejects_bad_input():
    xs = [0.3, 9.1, 2.2, 5.5, 1.0, 8.8, 4.4]
    assert arith.percentile(xs, 50) == statistics.median(xs)
    with pytest.raises(ValueError):
        arith.percentile([], 50)
    with pytest.raises(ValueError):
        arith.percentile(xs, 101)


def test_spread_uses_statistics_quantiles():
    xs = [10.0, 11.0, 9.0, 10.5, 12.0, 9.5, 10.2, 10.8, 11.5, 9.8]
    s = arith.spread(xs)
    q1, _, q3 = statistics.quantiles(xs, n=4)
    assert s["median"] == statistics.median(xs)
    assert (s["q1"], s["q3"]) == (q1, q3)
    assert s["iqr_frac"] == pytest.approx((q3 - q1) / s["median"])
    assert (s["min"], s["max"], s["n"]) == (9.0, 12.0, 10)
    assert math.isinf(arith.spread([0.0, 0.0])["iqr_frac"])


def test_cell_medians_pool_every_round_of_every_pass():
    passes = [
        {"samples": {"a": [3.0, 1.0], "b": [1.0, 1.0]}},
        {"samples": {"a": [2.0, 9.0], "b": [4.0, 1.0]}},
    ]
    assert run.cell_medians(passes) == [2.5, 1.0]
    serve = [{"samples": {"latency": [5.0, 2.0]}}, {"samples": {"latency": [4.0]}}]
    assert run.pooled(serve, "latency") == [5.0, 2.0, 4.0]


def test_end_to_end_arithmetic():
    sim = {"samples": {"x": [0.5, 0.4, 0.6], "y": [1.5]}, "tasks": {"x": 10, "y": 30},
           "setup": 0.4, "peak_rss_mb": 80.0}
    serve = {"samples": {"latency": [i / 1000 for i in range(1, 101)],
                         "ttfc": [i / 2000 for i in range(1, 101)]},
             "scaled_wall": 4.0, "setup": 1.0, "peak_rss_mb": 60.0}
    m = run.end_to_end("sim-cells", {"sim": [sim], "serve": [serve]})
    assert m["sim.cells_per_s"] == 1.0
    assert m["sim.tasks_per_s"] == 20.0
    assert m["serve.req_p50_ms"] == pytest.approx(50.5)
    assert m["serve.req_p90_ms"] == pytest.approx(90.1)
    assert m["serve.ttfc_p50_ms"] == pytest.approx(25.25)
    assert m["serve.req_per_s"] == 25.0
    assert (m["setup_s"], m["peak_rss_mb"]) == (0.4, 80.0)
    assert set(m) == set(run.END_TO_END)
    m = run.end_to_end("serve-mixed", {"sim": [sim], "serve": [serve]})
    assert (m["setup_s"], m["peak_rss_mb"]) == (1.0, 60.0)


def test_host_scale_turns_host_seconds_into_reference_seconds():
    nominal = hostprobe.NOMINAL_SECONDS
    assert hostprobe.scale(nominal, nominal) == 1.0
    # a host twice as slow as the reference halves every timing
    assert hostprobe.scale(2 * nominal, 2 * nominal) == pytest.approx(0.5)
    # a spell that changes between the two probes takes their mean
    assert hostprobe.scale(nominal, 3 * nominal) == pytest.approx(0.5)
    assert hostprobe.measure() > 0.0


def test_per_layer_sums_phases_and_derives_ratios():
    sim = {"layers": {"runtime.stealing_ms": 300.0, "runtime.amt_ms": 100.0,
                      "runtime.tasks": 1000, "runtime.stealing_events": 600,
                      "workloads.graph_ms": 50.0},
           "wall": 4.0, "traced_wall": 5.0}
    est = {"layers": {"runtime.amt_ms": 100.0, "runtime.tasks": 1000,
                      "runtime.stealing_events": 0, "workloads.graph_ms": 25.0,
                      "sim.tiers.us_per_cell": 900.0},
           "wall": 6.0, "traced_wall": 5.0}
    out = run.per_layer([sim, est])
    assert set(out) == set(run.PER_LAYER)
    assert out["workloads.graph_ms"] == 75.0
    assert out["runtime.amt_ms"] == 200.0
    assert out["runtime.us_per_task"] == pytest.approx(500.0 * 1e3 / 2000)
    assert out["sim.engine.us_per_event"] == pytest.approx(300.0 * 1e3 / 600)
    assert out["sim.tiers.us_per_cell"] == 900.0
    assert out["bench.trace_overhead_frac"] == pytest.approx(0.0)
    assert out["sweep.cache.get_ms"] == 0.0


# ---------------------------------------------------------------------------
# failed share
# ---------------------------------------------------------------------------
def test_failed_frac():
    assert arith.failed_frac(0, 120) == 0.0
    assert arith.failed_frac(3, 12) == 0.25
    with pytest.raises(ValueError):
        arith.failed_frac(0, 0)
    with pytest.raises(ValueError):
        arith.failed_frac(5, 4)


# ---------------------------------------------------------------------------
# self time
# ---------------------------------------------------------------------------
def span(sid, name, start, end, parent=None):
    return {"id": sid, "name": name, "start": start, "end": end, "parent": parent}


def test_self_time_subtracts_direct_children_only():
    rows = [
        span(0, "cell", 0.0, 10.0),
        span(1, "runtime.stealing", 1.0, 9.0, parent=0),
        span(2, "workloads.graph", 2.0, 5.0, parent=1),
        span(3, "workloads.build", 9.0, 9.5, parent=0),
    ]
    own = arith.self_times(rows)
    assert own == {0: pytest.approx(1.5), 1: pytest.approx(5.0), 2: 3.0, 3: 0.5}
    totals = arith.layer_self_seconds(rows)
    assert totals["runtime.stealing"] == pytest.approx(5.0)
    # self times partition the root interval exactly
    assert sum(own.values()) == pytest.approx(10.0)


def test_layer_self_seconds_sums_spans_of_one_name():
    rows = [span(0, "sweep.cache.get", 0.0, 1.0), span(1, "sweep.cache.get", 2.0, 2.5)]
    assert arith.layer_self_seconds(rows) == {"sweep.cache.get": 1.5}


# ---------------------------------------------------------------------------
# digests and fingerprints
# ---------------------------------------------------------------------------
def test_doc_digest_is_byte_exact():
    doc = {"time": 0.1 + 0.2, "regions": [{"meta": {"events": 3}}]}
    assert arith.doc_digest(doc) == arith.doc_digest({"time": 0.30000000000000004,
                                                      "regions": [{"meta": {"events": 3}}]})
    # key order is part of the bytes the store writes
    assert arith.doc_digest({"a": 1, "b": 2}) != arith.doc_digest({"b": 2, "a": 1})
    # one ulp is a different result
    assert arith.doc_digest({"t": 1.0}) != arith.doc_digest({"t": math.nextafter(1.0, 2.0)})


def test_fingerprint_mismatches():
    want = {"cells": 12, "sim.engine.events": 151081}
    assert arith.fingerprint_mismatches(dict(want), want) == []
    got = {"cells": 11, "sim.engine.events": 151081, "extra": 1}
    assert arith.fingerprint_mismatches(got, want) == [
        "cells: got 11, expected 12", "extra: got 1, expected None"]


# ---------------------------------------------------------------------------
# the seeded serve stream
# ---------------------------------------------------------------------------
def test_stream_is_a_pure_function_of_the_seed():
    a = mixes.serve_stream(7, VERSIONS)
    b = mixes.serve_stream(7, VERSIONS)
    assert a == b
    assert mixes.stream_digest(a) == mixes.stream_digest(b)
    assert mixes.stream_digest(a) != mixes.stream_digest(mixes.serve_stream(8, VERSIONS))
    # single requests travel alone; only pair rounds share the server
    assert all(len(batch) == 1 or batch == [batch[0]] * mixes.SERVE_CONNECTIONS
               for batch in a)


def test_seeds_only_reorder_one_multiset():
    a, b = (mixes.serve_stream(seed, VERSIONS) for seed in (0, 1))
    flat = [sorted(map(repr, (q for batch in s for q in batch))) for s in (a, b)]
    assert flat[0] == flat[1]
    assert mixes.expected_serve_counts(a) == mixes.expected_serve_counts(b)


def test_stream_composition():
    rounds = mixes.serve_stream(3, VERSIONS)
    queries = [q for batch in rounds for q in batch]
    singles = mixes.FRESH_QUERIES + mixes.REPEAT_REQUESTS + mixes.TRACED_REQUESTS
    assert len(queries) == singles + mixes.PAIR_ROUNDS * mixes.SERVE_CONNECTIONS
    assert sum(q.trace for q in queries) == mixes.TRACED_REQUESTS
    assert {q.fidelity for q in queries} == {0, 2}
    assert sum(len(b) == 2 and b[0] == b[1] for b in rounds) >= mixes.PAIR_ROUNDS
    assert not any(q.workload == "fib" for q in queries)
    counts = mixes.expected_serve_counts(rounds)
    untraced_cells = sum(len(q.threads) for q in queries if not q.trace)
    distinct = {label for q in queries for label in q.labels()}
    assert counts["stores"] == len(distinct)
    assert counts["hits_or_joins"] == counts["cells"] - len(distinct)
    assert counts["cells"] == untraced_cells + mixes.TRACED_REQUESTS


def test_expected_counts_follow_first_requests():
    q = mixes.Query("axpy", "omp_for", (2, 4), 0)
    r = mixes.Query("axpy", "omp_for", (4, 8), 2)
    t = mixes.Query("lud", "omp_task", (16,), 2, trace=True)
    counts = mixes.expected_serve_counts([[q, q], [r, t], [t, q]])
    assert counts == {"requests": 6, "cells": 10, "stores": 5, "simulations": 3,
                      "estimates": 2, "hits_or_joins": 5}


def test_cell_labels():
    assert mixes.cell_label("lud", "omp_task", 16, 2, True) == "lud/omp_task/p16/f2/t1"
    assert mixes.Query("sum", "mpi", (2, 8), 0).labels() == [
        "sum/mpi/p2/f0/t0", "sum/mpi/p8/f0/t0"]
