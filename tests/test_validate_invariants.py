"""Tests for the trace invariant checker (repro.validate.invariants)."""

import random

import pytest

from repro.kernels import axpy, fib
from repro.obs.tracer import Tracer
from repro.runtime.base import ExecContext
from repro.runtime.run import run_program
from repro.runtime.workstealing import run_stealing_graph, run_stealing_loop
from repro.sim.machine import Machine
from repro.sim.trace import RegionResult, SimResult, WorkerStats
from repro.validate.invariants import (
    SimulationInvariantError,
    ValidationReport,
    Violation,
    busy_envelope,
    check_event_times,
    check_intervals,
    check_lock_log,
    check_region,
    check_result,
    check_trace,
)
from repro.validate.properties import SMALL_MACHINE, random_program

CTX = ExecContext()


class TestValidationReport:
    def test_empty_report_is_ok(self):
        rep = ValidationReport()
        assert rep.ok and rep.checks == 0
        assert rep.describe().startswith("OK")
        rep.raise_if_failed()  # no-op

    def test_failed_check_recorded(self):
        rep = ValidationReport()
        assert rep.check(True, "a", "here") is True
        assert rep.check(False, "b", "there", "1 != 2") is False
        assert rep.checks == 2 and not rep.ok
        assert rep.violations == [Violation("b", "there", "1 != 2")]
        assert "[b] there: 1 != 2" in rep.describe()
        with pytest.raises(SimulationInvariantError, match="1 of 2"):
            rep.raise_if_failed()

    def test_merge_accumulates(self):
        a, b = ValidationReport(), ValidationReport()
        a.check(True, "x", "a")
        b.check(False, "y", "b")
        a.merge(b)
        assert a.checks == 2 and len(a.violations) == 1

    def test_describe_truncates(self):
        rep = ValidationReport()
        for i in range(30):
            rep.check(False, "inv", f"site{i}")
        text = rep.describe(max_violations=5)
        assert "and 25 more" in text


class TestCheckIntervals:
    def test_clean_intervals_pass(self):
        ivs = [(0, 0.0, 1.0, "a"), (0, 1.0, 2.0, "b"), (1, 0.5, 1.5, "c")]
        assert check_intervals(ivs, 2, horizon=2.0).ok

    def test_overlap_same_worker_flagged(self):
        # the deliberate trace-tampering case from the acceptance criteria
        ivs = [(0, 0.0, 1.0, "a"), (0, 0.5, 1.5, "b")]
        rep = check_intervals(ivs, 1)
        assert [v.invariant for v in rep.violations] == ["interval-overlap"]

    def test_overlap_across_workers_is_fine(self):
        ivs = [(0, 0.0, 1.0, "a"), (1, 0.0, 1.0, "b")]
        assert check_intervals(ivs, 2).ok

    def test_worker_out_of_range(self):
        rep = check_intervals([(5, 0.0, 1.0, "a")], 2)
        assert any(v.invariant == "interval-worker-range" for v in rep.violations)

    def test_horizon_and_ordering(self):
        rep = check_intervals([(0, 2.0, 1.0, "a")], 1, horizon=1.5)
        kinds = {v.invariant for v in rep.violations}
        assert "interval-ordered" in kinds


class TestCheckLockLog:
    def test_fifo_grants_pass(self):
        log = [(0.0, 0.0, 1.0), (0.5, 1.0, 1.0), (1.2, 2.0, 0.5)]
        assert check_lock_log(log).ok

    def test_overlapping_grants_flagged(self):
        log = [(0.0, 0.0, 1.0), (0.1, 0.5, 1.0)]
        rep = check_lock_log(log)
        assert any(v.invariant == "lock-exclusivity" for v in rep.violations)

    def test_grant_before_request_flagged(self):
        rep = check_lock_log([(5.0, 4.0, 0.1)])
        assert any(v.invariant == "lock-causality" for v in rep.violations)

    def test_negative_hold_flagged(self):
        rep = check_lock_log([(0.0, 0.0, -1.0)])
        assert any(v.invariant == "lock-hold-nonnegative" for v in rep.violations)


class TestCheckEventTimes:
    def test_monotonic_passes(self):
        assert check_event_times([(0.0, 1), (1.0, 2), (1.0, 3), (2.0, 1)]).ok

    def test_backwards_clock_flagged(self):
        rep = check_event_times([(1.0, 1), (0.5, 2)])
        assert any(v.invariant == "event-monotonic" for v in rep.violations)

    def test_tie_out_of_insertion_order_flagged(self):
        rep = check_event_times([(1.0, 7), (1.0, 3)])
        assert any(v.invariant == "event-tie-order" for v in rep.violations)


class TestBusyEnvelope:
    def test_compute_bound_lower_is_work(self):
        lower, upper = busy_envelope(1.0, 0.0, 1.0, 4, CTX)
        assert lower == 1.0 and upper >= 1.0

    def test_memory_bound_lower_uses_single_thread_bandwidth(self):
        bw1 = CTX.machine.bandwidth_per_thread(1, 1.0)
        lower, upper = busy_envelope(0.0, 1e9, 1.0, 8, CTX)
        assert lower == pytest.approx(1e9 / bw1)
        assert upper >= lower

    def test_envelope_widens_with_threads(self):
        _, up1 = busy_envelope(1.0, 1e8, 1.0, 1, CTX)
        _, up72 = busy_envelope(1.0, 1e8, 1.0, 72, CTX)
        assert up72 > up1

    def test_mixed_locality_uses_both_edges(self):
        # best locality for the lower edge, worst for the upper edge
        lo_hi, up_hi = busy_envelope(0.0, 1e8, 1.0, 4, CTX, locality_min=0.0)
        lo_rand, up_rand = busy_envelope(0.0, 1e8, 0.0, 4, CTX)
        assert lo_hi < lo_rand  # streaming bytes can move faster
        assert up_hi == pytest.approx(up_rand)  # both bounded by random access


class TestCheckRegion:
    def test_real_stealing_run_passes(self):
        space = axpy.space(CTX.machine, 200_000)
        tracer = Tracer()
        res = run_stealing_loop(space, 4, CTX, tracer=tracer)
        rep = check_region(res, ctx=CTX)
        check_trace(tracer, [res], report=rep)
        assert rep.ok, rep.describe()
        assert rep.checks > 100  # intervals + locks + events all audited

    def test_tampered_overlapping_interval_caught(self):
        space = axpy.space(CTX.machine, 200_000)
        tracer = Tracer()
        res = run_stealing_loop(space, 4, CTX, tracer=tracer)
        tracer.span(0, 0.0, res.time, "task", "tamper")
        rep = check_trace(tracer, [res])
        assert any(v.invariant == "interval-overlap" for v in rep.violations)

    def test_dropped_work_caught(self):
        space = axpy.space(CTX.machine, 200_000)
        res = run_stealing_loop(space, 2, CTX)
        for w in res.workers:
            w.busy *= 0.5  # "lose" half the executed work
        rep = check_region(res, ctx=CTX)
        assert any(v.invariant == "work-conservation-lower" for v in rep.violations)

    def test_invented_work_caught(self):
        space = axpy.space(CTX.machine, 200_000)
        res = run_stealing_loop(space, 2, CTX)
        res.workers[0].busy += res.time * 100
        rep = check_region(res, ctx=CTX)
        assert any(v.invariant == "work-conservation-upper" for v in rep.violations)

    def test_makespan_below_critical_path_caught(self):
        graph = fib.graph(10)
        res = run_stealing_graph(graph, 4, CTX)
        broken = RegionResult(
            time=graph.critical_path() * 0.5,
            nthreads=res.nthreads,
            workers=res.workers,
            meta=res.meta,
        )
        rep = check_region(broken, ctx=CTX)
        assert any(v.invariant == "makespan-critical-path" for v in rep.violations)

    def test_worker_busier_than_wallclock_caught(self):
        res = RegionResult(time=1.0, nthreads=1, workers=[WorkerStats(busy=2.0)])
        rep = check_region(res)
        assert any(v.invariant == "worker-wallclock" for v in rep.violations)

    def test_negative_stats_caught(self):
        res = RegionResult(time=1.0, nthreads=1, workers=[WorkerStats(busy=-1.0)])
        rep = check_region(res)
        assert any(v.invariant == "worker-stats-nonnegative" for v in rep.violations)


class TestCheckResult:
    def test_real_program_passes(self):
        prog = fib.program("cilk_spawn", machine=CTX.machine, n=10)
        res = run_program(prog, 4, CTX)
        assert check_result(res, ctx=CTX).ok

    def test_program_time_below_region_sum_caught(self):
        prog = fib.program("omp_task", machine=CTX.machine, n=8)
        res = run_program(prog, 2, CTX)
        broken = SimResult(
            program=res.program,
            version=res.version,
            nthreads=res.nthreads,
            time=res.time * 0.5,
            regions=res.regions,
        )
        rep = check_result(broken, ctx=CTX)
        assert any(
            v.invariant == "program-time-covers-regions" for v in rep.violations
        )


def _two_region_trace(first, second):
    """A program trace of two engine regions, each popping the
    region-local ``(time, seq)`` events given, the second offset by the
    first's reported end of 1.0."""
    tracer = Tracer()
    regions = []
    for offset, events in ((0.0, first), (1.0, second)):
        tracer.begin_region(f"r{len(regions)}", offset=offset)
        for t, seq in events:
            tracer.engine_event(t, seq)
        regions.append(RegionResult(time=1.0, nthreads=1, workers=[WorkerStats()],
                                    meta={"events": len(events)}))
    return tracer, regions


def _p91_small_machine():
    """Program 91 of the ``Random(0)`` property stream, whose stealing
    loop pops leftover wake-ups after its region's reported end."""
    rng = random.Random(0)
    for i in range(92):
        prog = random_program(rng, i)
    return prog, ExecContext(machine=SMALL_MACHINE)


class TestCheckTrace:
    def test_engine_drain_past_region_end_passes(self):
        prog, ctx = _p91_small_machine()
        res = run_program(prog, 9, ctx, trace=True, validate=True)
        # the whole trace does run backwards across a region boundary
        assert not check_event_times(res.trace.engine_events).ok
        assert check_result(res, ctx=ctx).ok

    def test_slices_may_overlap_across_regions(self):
        # region 0 drains to 1.2, past its end; region 1 starts at 1.0
        tracer, regions = _two_region_trace([(0.0, 1), (1.2, 2)], [(0.0, 1), (0.5, 2)])
        assert check_trace(tracer, regions).ok

    def test_backwards_clock_inside_one_region_flagged(self):
        tracer, regions = _two_region_trace([(0.0, 1), (0.5, 2)], [(0.5, 1), (0.2, 2)])
        rep = check_trace(tracer, regions)
        assert [v.invariant for v in rep.violations] == ["event-monotonic"]
        assert "region[1]" in rep.violations[0].where

    @pytest.mark.parametrize("extra", [-1, 1])
    def test_event_count_mismatch_is_a_violation(self, extra):
        tracer, regions = _two_region_trace([(0.0, 1), (0.5, 2)], [(0.2, 1)])
        regions[1].meta["events"] += extra
        rep = check_trace(tracer, regions)
        assert [v.invariant for v in rep.violations] == ["event-count"]

    def test_slice_ties_need_only_be_distinct_pairs(self):
        # one region-local loop keeps insertion order; after the offset
        # two of its times may round onto one float in either seq order
        tracer, regions = _two_region_trace([], [(0.3, 2), (0.3, 1)])
        assert check_trace(tracer, regions).ok
        assert not check_event_times([(0.3, 2), (0.3, 1)]).ok
        tracer, regions = _two_region_trace([], [(0.3, 1), (0.3, 1)])
        rep = check_trace(tracer, regions)
        assert [v.invariant for v in rep.violations] == ["event-tie-order"]

    def test_exec_spans_must_match_busy_time(self):
        prog = fib.program("omp_task", machine=CTX.machine, n=8)
        res = run_program(prog, 2, CTX, trace=True)
        assert check_result(res, ctx=CTX).ok
        res.regions[-1].workers[1].busy *= 1.01
        rep = check_result(res, ctx=CTX)
        assert "trace-busy-mismatch" in {v.invariant for v in rep.violations}

    @pytest.mark.parametrize("p", [1, 4])
    def test_exec_span_past_region_workers_flagged(self, p):
        # the bound is the region's p workers, not the trace's top row
        res = run_program(fib.program("omp_task", machine=CTX.machine, n=8), p, CTX,
                          trace=True)
        assert not res.regions[-1].meta.get("aggregate_workers")
        assert check_result(res, ctx=CTX).ok
        res.trace.span(p, 0.0, 0.0, "task", "stray")
        rep = check_result(res, ctx=CTX)
        assert [v.invariant for v in rep.violations] == ["interval-worker-range"]

    def test_exec_span_past_single_run_workers_flagged(self):
        tracer = Tracer()
        res = run_stealing_loop(axpy.space(CTX.machine, 4_000), 2, CTX, tracer=tracer)
        assert check_trace(tracer, [res]).ok
        tracer.span(2, 0.0, 0.0, "chunk", "stray")
        rep = check_trace(tracer, [res])
        assert [v.invariant for v in rep.violations] == ["interval-worker-range"]

    def test_aggregate_region_rows_are_unbounded(self):
        # thread-per-task: one row per task, far past the region's one worker
        res = run_program(fib.program("cxx_async", machine=CTX.machine, n=8), 2, CTX,
                          trace=True)
        assert res.regions[-1].meta["aggregate_workers"]
        assert res.trace.nworkers > len(res.regions[-1].workers)
        assert check_result(res, ctx=CTX).ok

    def test_region_count_mismatch_flagged(self):
        tracer, regions = _two_region_trace([(0.0, 1)], [(0.0, 1)])
        rep = check_trace(tracer, regions[:1] * 3)
        assert "trace-regions" in {v.invariant for v in rep.violations}


class TestRunProgramValidate:
    def test_validate_flag_passes_clean_run(self):
        prog = fib.program("cilk_spawn", machine=CTX.machine, n=10)
        res = run_program(prog, 4, CTX, validate=True)
        assert res.time > 0

    def test_validate_flag_raises_on_tampered_executor(self, monkeypatch):
        import repro.runtime.run as run_mod

        real = run_mod.GRAPH_EXECUTORS["stealing"]

        def tampered(graph, nthreads, ctx, *, tracer, **kw):
            res = real(graph, nthreads, ctx, tracer=tracer, **kw)
            tracer.span(0, 0.0, 1e-6, "task", "x")
            tracer.span(0, 0.5e-6, 1.5e-6, "task", "x")
            return res

        monkeypatch.setitem(run_mod.GRAPH_EXECUTORS, "stealing", tampered)
        prog = fib.program("cilk_spawn", machine=CTX.machine, n=10)
        with pytest.raises(SimulationInvariantError, match="interval-overlap"):
            run_program(prog, 4, CTX, validate=True, trace=True)

    @pytest.mark.parametrize("delta", [-1e-9, 1e-9])
    def test_validate_flag_raises_on_a_wrong_supplied_critical_path(self, monkeypatch, delta):
        real = fib._critical_path
        monkeypatch.setattr(fib, "_critical_path", lambda n: real(n) + delta)
        prog = fib.program("cilk_spawn", machine=CTX.machine, n=10)
        run_program(prog, 4, CTX)  # runs, trusting the value
        with pytest.raises(SimulationInvariantError, match="critical path out of sync"):
            run_program(prog, 4, CTX, validate=True)

    def test_registry_audit_reports_a_wrong_supplied_critical_path(self, monkeypatch):
        from repro.validate import run_registry_audit

        monkeypatch.setattr(fib, "_critical_path", lambda n: 0.0)
        rep = run_registry_audit(threads=(2,), versions=("cilk_spawn",))
        assert rep.violations
        assert all(v.invariant == "graph-structure" and v.where.startswith("registry[fib/")
                   for v in rep.violations)

    def test_validate_on_small_machine(self):
        ctx = ExecContext(machine=Machine(sockets=1, cores_per_socket=2, smt=2))
        prog = fib.program("omp_task", machine=ctx.machine, n=9)
        res = run_program(prog, 3, ctx, validate=True)
        assert check_result(res, ctx=ctx).ok
