"""Tests for the observability layer (repro.obs).

Covers the ISSUE 2 acceptance criteria: Chrome-trace exporter
round-trip with well-formed monotonic spans, metrics arithmetic, the
zero-overhead disabled path (bit-identical simulations), at least one
span per worker for the traced fib run, and the bottleneck attribution
ranking compute above steal overhead for matmul while fib shows a
measurable steal/overhead share at high thread counts.
"""

import json
import math
import random

import pytest

from repro.core.registry import get_workload
from repro.obs import (
    EXEC_KINDS,
    OVERHEAD_KINDS,
    Histogram,
    MetricsRegistry,
    Tracer,
    attribute_result,
    chrome_trace,
    render_timeline,
    result_metrics,
    write_chrome_trace,
    write_metrics,
)
from repro.perf.spans import PerfRecorder
from repro.runtime.base import ExecContext
from repro.runtime.run import run_program
from repro.validate.invariants import check_trace

CTX = ExecContext()


def traced_run(workload, version, p, **overrides):
    spec = get_workload(workload)
    params = dict(spec.validation_params or spec.default_params)
    params.update(overrides)
    prog = spec.build(version, CTX.machine, **params)
    return run_program(prog, p, CTX, version, validate=True, trace=True)


def plain_run(workload, version, p, **overrides):
    spec = get_workload(workload)
    params = dict(spec.validation_params or spec.default_params)
    params.update(overrides)
    prog = spec.build(version, CTX.machine, **params)
    return run_program(prog, p, CTX, version)


def snapshot(res):
    return (
        res.time,
        tuple(
            tuple((w.busy, w.overhead, w.tasks, w.steals) for w in r.workers)
            for r in res.regions
        ),
    )


class TestTracer:
    def test_offset_shifts_spans(self):
        tr = Tracer()
        tr.begin_region("a", offset=0.0)
        tr.span(0, 0.0, 1.0, "task", "t0")
        tr.begin_region("b", offset=5.0)
        tr.span(0, 0.0, 1.0, "task", "t1")
        assert tr.spans[0].start == 0.0 and tr.spans[0].end == 1.0
        assert tr.spans[1].start == 5.0 and tr.spans[1].end == 6.0
        assert tr.spans[0].region == 0 and tr.spans[1].region == 1
        assert tr.region_names == ["a", "b"]

    def test_kind_partitions_are_disjoint(self):
        assert not (EXEC_KINDS & OVERHEAD_KINDS)

    def test_queries(self):
        tr = Tracer()
        tr.span(0, 0.0, 1.0, "task")
        tr.span(1, 1.0, 2.0, "steal")
        tr.instant(2, 1.5, "wake")
        assert tr.nworkers == 3
        assert tr.horizon == 2.0
        assert len(tr.exec_spans()) == 1
        assert tr.intervals() == [(0, 0.0, 1.0, "task")]
        assert tr.time_by_kind() == {"task": 1.0, "steal": 1.0}
        assert len(tr) == 3
        assert "2 spans" in tr.describe()

    def test_fib_has_span_on_every_worker(self):
        """Acceptance: traced fib at p=16 emits >= 1 span per worker."""
        res = traced_run("fib", "cilk_spawn", 16)
        workers = {s.worker for s in res.trace.exec_spans()}
        assert workers == set(range(16))

    def test_spans_well_formed_and_within_horizon(self):
        for version in ("omp_for", "cilk_for", "omp_task", "cxx_thread"):
            res = traced_run("matvec", version, 8)
            assert res.trace is not None and len(res.trace.spans) > 0
            for s in res.trace.spans:
                assert s.start >= 0.0
                assert s.end >= s.start
                assert s.end <= res.time * (1 + 1e-9)

    def test_check_trace_flags_injected_overlap(self):
        res = traced_run("fib", "omp_task", 4)
        rep = check_trace(res.trace, res.regions, horizon=res.time)
        assert rep.ok, rep.describe()
        res.trace.span(0, 0.0, res.time, "task", "tamper")
        res.trace.span(0, 0.0, res.time / 2, "task", "tamper")
        rep2 = check_trace(res.trace, res.regions, horizon=res.time)
        assert not rep2.ok
        assert any(v.invariant == "interval-overlap" for v in rep2.violations)


class TestZeroOverheadPath:
    """Tracing off must mean *no* per-event state and identical physics."""

    @pytest.mark.parametrize(
        "workload,version",
        [("fib", "cilk_spawn"), ("fib", "omp_task"), ("matmul", "cilk_for"),
         ("axpy", "omp_for"), ("sum", "cxx_async"),
         # a reducer on every steal, and the three AMT graph walks
         ("sum", "cilk_for"), ("fib", "hpx"), ("fib", "charm"), ("fib", "mpi")],
    )
    def test_traced_run_is_bit_identical(self, workload, version):
        a = plain_run(workload, version, 8)
        b = traced_run(workload, version, 8)
        assert snapshot(a) == snapshot(b)

    @pytest.mark.parametrize(
        "p,options",
        [
            (4, {"deque": "the"}),
            (4, {"deque": "locked"}),
            (4, {"deque": "the", "work_first": True}),
            (4, {"deque": "locked", "central_queue": True}),
            (4, {"deque": "the", "reducer": True}),
            (1, {"deque": "locked", "undeferred_single": True}),
            (4, {"deque": "the", "faults": "fail:task=5", "error_mode": "poison"}),
            (4, {"deque": "locked", "faults": "fail:task=5", "error_mode": "none"}),
            (4, {"deque": "the", "faults": "stall:worker=1,at=2e-6,duration=5e-6"}),
        ],
        ids=["the", "locked", "work_first", "central_queue", "reducer",
             "undeferred_single", "fault-poison", "fault-none", "stall"],
    )
    def test_traced_scheduler_is_bit_identical(self, p, options):
        """Every branch of the work-stealing event loop, traced and not."""
        from repro.faults.plan import FaultPlan
        from repro.runtime.workstealing import StealingScheduler

        spec = get_workload("fib")
        prog = spec.build("cilk_spawn", CTX.machine, n=12)
        graph = next(r for r in prog if hasattr(r, "graph_for")).graph_for(p)
        options = dict(options)
        spec_text = options.pop("faults", None)
        mode = options.pop("error_mode", None)

        def run(tracer):
            faults = (FaultPlan.parse(spec_text).for_region("r", 0, mode=mode or "poison")
                      if spec_text else None)
            sched = StealingScheduler(graph, p, CTX, tracer=tracer, faults=faults, **options)
            res = sched.run()
            return (res.time, res.meta, len(sched._heap),
                    [(w.busy, w.overhead, w.tasks, w.steals) for w in res.workers])

        tracer = Tracer()
        plain = run(None)
        assert plain == run(tracer)
        assert tracer.engine_events or p == 1
        if mode == "poison":
            assert plain[1]["fault"]["cancelled"]

    def test_untraced_result_carries_no_trace(self):
        res = plain_run("fib", "cilk_spawn", 4)
        assert res.trace is None

    def test_passed_tracer_is_used_not_dropped(self):
        """A fresh ``Tracer`` is empty, so falsy: ``run_program`` must
        still trace into it, exactly as ``trace=True`` would, and
        ``trace=False`` must stay untraced."""
        spec = get_workload("lud")
        prog = spec.build("omp_task", CTX.machine)
        tracer = Tracer()
        assert not tracer
        res = run_program(prog, 4, CTX, "omp_task", trace=tracer)
        assert res.trace is tracer
        reference = run_program(prog, 4, CTX, "omp_task", trace=True).trace
        assert len(tracer) == len(reference) > 0
        assert run_program(prog, 4, CTX, "omp_task", trace=False).trace is None


class TestMetrics:
    def test_counter_gauge_histogram_arithmetic(self):
        m = MetricsRegistry()
        m.counter("steals").inc(3)
        m.counter("steals").inc()
        assert m.counter("steals").value == 4
        with pytest.raises(ValueError):
            m.counter("steals").inc(-1)
        m.gauge("util").set(0.5)
        m.gauge("util").add(0.25)
        assert m.gauge("util").value == 0.75
        h = m.histogram("depth")
        for v in (1.0, 2.0, 6.0):
            h.observe(v)
        assert h.count == 3 and h.total == 9.0
        assert h.min == 1.0 and h.max == 6.0 and h.mean == 3.0

    def test_merge_pools_all_three_kinds(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("tasks").inc(2)
        b.counter("tasks").inc(3)
        a.gauge("busy").add(1.0)
        b.gauge("busy").add(2.0)
        a.histogram("x").observe(1.0)
        b.histogram("x").observe(3.0)
        a.merge(b)
        assert a.counter("tasks").value == 5
        assert a.gauge("busy").value == 3.0
        assert a.histogram("x").to_dict() == {
            "count": 2, "total": 4.0, "min": 1.0, "max": 3.0, "mean": 2.0,
            # bucket midpoints: 1.0 is in bucket 0, 3.0 in bucket 12
            "p50": 2 ** (0.5 / 8), "p90": 2 ** (12.5 / 8), "p99": 2 ** (12.5 / 8),
        }

    def test_result_metrics_agree_with_result(self):
        res = plain_run("fib", "cilk_spawn", 8)
        m = result_metrics(res)
        assert m.counter("tasks").value == res.total_tasks
        assert m.counter("steals").value == res.total_steals
        assert m.gauge("busy_seconds").value == pytest.approx(res.total_busy)
        assert m.gauge("utilization").value == pytest.approx(res.utilization())
        assert m.gauge("sim_time_seconds").value == res.time
        # same numbers via the result-side convenience accessor
        assert res.metrics().to_dict() == m.to_dict()

    def test_to_dict_is_json_ready(self):
        m = traced_run("matmul", "omp_for", 4).metrics()
        json.dumps(m.to_dict())
        assert "metrics:" in m.describe()


def _lognormal(seed, n=200):
    rng = random.Random(seed)
    return [rng.lognormvariate(0.0, 2.0) for _ in range(n)]


def _histogram(values):
    h = Histogram("h")
    for v in values:
        h.observe(v)
    return h


QUANTILES = (0.5, 0.9, 0.99)
#: a bucket's geometric midpoint is within 2^(1/16) of every value in it
#: (plus rounding at the bucket edges)
QUANTILE_ERROR = 2 ** (1 / 16) - 1 + 1e-12


class TestHistogram:
    """The one mergeable distribution both planes use."""

    @pytest.mark.parametrize("seed", range(5))
    def test_quantiles_within_bucket_error_of_nearest_rank(self, seed):
        values = _lognormal(seed)
        h = _histogram(values)
        ordered = sorted(values)
        for q in QUANTILES:
            nearest = ordered[max(1, math.ceil(q * len(values))) - 1]
            assert abs(h.quantile(q) / nearest - 1) <= QUANTILE_ERROR, q
            assert h.min <= h.quantile(q) <= h.max

    def test_quantiles_of_nonpositive_values_stay_in_range(self):
        h = _histogram([-2.0, 0.0, 0.0, 5.0])
        assert h.quantile(0.5) == 0.0
        assert h.quantile(0.0) == 0.0  # the zero bucket clamps to [min, max]
        assert h.quantile(0.99) == pytest.approx(5.0, rel=QUANTILE_ERROR)
        assert Histogram("empty").quantile(0.5) == 0.0

    @pytest.mark.parametrize("seed", range(3))
    def test_merge_is_associative(self, seed):
        values = _lognormal(seed, 90)
        parts = [values[:30], values[30:60], values[60:]]
        left = _histogram(parts[0]).merge(_histogram(parts[1]).merge(_histogram(parts[2])))
        right = _histogram(parts[0]).merge(_histogram(parts[1])).merge(_histogram(parts[2]))
        assert left.buckets == right.buckets == _histogram(values).buckets
        assert (left.count, left.min, left.max) == (right.count, right.min, right.max)

    def test_merged_registries_and_recorders_match_one_observer(self):
        values = _lognormal(7)
        one_reg, reg_a, reg_b = MetricsRegistry(), MetricsRegistry(), MetricsRegistry()
        one_rec, rec_a, rec_b = PerfRecorder(), PerfRecorder(), PerfRecorder()
        for i, v in enumerate(values):
            one_reg.histogram("x").observe(v)
            one_rec.observe("x", v)
            one_rec.add_span("s", v, 0.0)
            (reg_a if i % 2 else reg_b).histogram("x").observe(v)
            (rec_a if i % 3 else rec_b).observe("x", v)
            (rec_a if i % 3 else rec_b).add_span("s", v, 0.0)
        merged_reg = reg_a.merge(reg_b).histogram("x")
        merged_rec = rec_a.merge(rec_b)
        for merged, one in (
            (merged_reg, one_reg.histogram("x")),
            (merged_rec.observations["x"], one_rec.observations["x"]),
            (merged_rec.spans["s"], one_rec.spans["s"]),
        ):
            assert [merged.quantile(q) for q in QUANTILES] == [
                one.quantile(q) for q in QUANTILES
            ]
            assert (merged.count, merged.min, merged.max) == (one.count, one.min, one.max)


class TestChromeExport:
    def test_round_trip_valid_json(self, tmp_path):
        res = traced_run("fib", "cilk_spawn", 8)
        path = tmp_path / "nested" / "dir" / "trace.json"
        write_chrome_trace(path, res.trace, metadata={"program": "fib"})
        doc = json.loads(path.read_text())
        assert doc["displayTimeUnit"] == "ms"
        assert doc["otherData"]["program"] == "fib"
        events = doc["traceEvents"]
        assert isinstance(events, list) and events
        phases = {e["ph"] for e in events}
        assert "X" in phases and "M" in phases
        for e in events:
            if e["ph"] == "X":
                assert e["ts"] >= 0.0 and e["dur"] >= 0.0
        # one thread_name metadata row per worker
        names = [e for e in events if e["ph"] == "M" and e["name"] == "thread_name"]
        worker_rows = {e["tid"] for e in names if e["tid"] < 1_000_000}
        assert worker_rows == set(range(res.trace.nworkers))

    def test_spans_monotonic_per_worker(self):
        res = traced_run("fib", "omp_task", 8)
        doc = chrome_trace(res.trace)
        by_tid = {}
        for e in doc["traceEvents"]:
            if e["ph"] == "X" and e.get("cat") in EXEC_KINDS:
                by_tid.setdefault(e["tid"], []).append((e["ts"], e["ts"] + e["dur"]))
        assert by_tid
        for tid, spans in by_tid.items():
            spans.sort()
            for (s0, e0), (s1, _e1) in zip(spans, spans[1:]):
                assert s1 >= e0 - 1e-6, f"worker {tid} spans overlap"

    def test_lock_tracks_present_for_locked_deque(self):
        res = traced_run("fib", "omp_task", 4)
        doc = chrome_trace(res.trace)
        lock_rows = [
            e for e in doc["traceEvents"]
            if e["ph"] == "M" and e["args"].get("name", "").startswith("lock ")
        ]
        assert lock_rows  # omp task uses locked deques -> per-lock tracks

    def test_gantt_renders_worker_rows(self):
        res = traced_run("matmul", "omp_for", 4)
        text = render_timeline(res.trace, nworkers=4)
        assert "w0" in text and "w3" in text

    def test_metrics_payload_round_trip(self, tmp_path):
        res = traced_run("fib", "cilk_spawn", 8)
        path = tmp_path / "m" / "metrics.json"
        write_metrics(path, res, tracer=res.trace, extra={"note": "t"})
        doc = json.loads(path.read_text())
        assert doc["program"] == "fib(12)" or doc["program"].startswith("fib")
        assert doc["nthreads"] == 8
        assert doc["metrics"]["counters"]["tasks"] == res.total_tasks
        assert doc["trace"]["workers"] == res.trace.nworkers
        assert doc["note"] == "t"
        cats = {e["category"] for e in doc["attribution"]}
        assert cats == {"compute", "memory", "steal", "lock", "runtime", "idle"}


class TestAttribution:
    def test_shares_cover_the_run(self):
        res = traced_run("fib", "cilk_spawn", 16)
        rep = attribute_result(res, ctx=CTX)
        assert sum(e.share for e in rep.entries) == pytest.approx(1.0, abs=1e-6)
        assert rep.total == pytest.approx(res.time * 16)

    def test_matmul_ranks_compute_above_steal(self):
        """Acceptance: matmul attribution puts compute above steal."""
        res = traced_run("matmul", "cilk_for", 16)
        rep = attribute_result(res, ctx=CTX)
        assert rep.top == "compute"
        assert rep.share("compute") > rep.share("steal")

    def test_fib_high_threads_shows_steal_overhead(self):
        """Acceptance: fib at high thread counts shows a measurable
        steal/runtime-overhead share."""
        res = traced_run("fib", "omp_task", 16)
        rep = attribute_result(res, ctx=CTX)
        assert rep.share("steal") + rep.share("runtime") > 0.01
        assert rep.seconds("steal") > 0.0

    def test_memory_bound_kernel_attributes_memory(self):
        res = traced_run("axpy", "omp_for", 16)
        rep = attribute_result(res, ctx=CTX)
        assert rep.share("memory") > rep.share("runtime")

    def test_describe_uses_paper_vocabulary(self):
        res = traced_run("fib", "omp_task", 8)
        text = attribute_result(res, ctx=CTX, program="fib", version="omp_task").describe()
        assert "bottleneck attribution" in text
        assert "work-stealing overhead" in text
        assert "=> dominated by" in text
