"""Fault-injection subsystem: plans, policies, semantics, accounting.

Covers the spec grammar and its validation errors, the per-model error
mode table (Table III), deterministic injection through every executor
family, retry/timeout/backoff recovery in ``run_program``, the
graceful-degradation accounting, and the Table III demo matrix.
"""

from __future__ import annotations

import pytest

from repro.faults import (
    ERROR_MODES,
    FAULT_KINDS,
    Fault,
    FaultPlan,
    Policy,
    RegionFailedError,
    error_mode,
    fault_summary,
)
from repro.faults.demos import FAULT_DEMOS, run_demo
from repro.features.data import ALL_MODELS
from repro.runtime.base import ExecContext
from repro.runtime.run import run_program
from repro.validate.invariants import check_region, check_result


# ---------------------------------------------------------------------------
# plan parsing and validation
# ---------------------------------------------------------------------------
class TestFaultPlan:
    def test_parse_single(self):
        plan = FaultPlan.parse("fail:task=5")
        (fault,) = tuple(plan)
        assert fault.kind == "task_fail"
        assert fault.task == 5

    def test_parse_multi(self):
        plan = FaultPlan.parse(
            "fail:task=1;stall:worker=0,at=1e-4,duration=2e-4;bandwidth:factor=4"
        )
        kinds = [f.kind for f in plan]
        assert kinds == ["task_fail", "worker_stall", "bandwidth_degrade"]

    def test_parse_aliases(self):
        for alias, kind in [
            ("fail:task=0", "task_fail"),
            ("stall:worker=0,duration=1e-5", "worker_stall"),
            ("lockdelay:duration=1e-6", "lock_delay"),
            ("bandwidth:factor=2", "bandwidth_degrade"),
        ]:
            (fault,) = tuple(FaultPlan.parse(alias))
            assert fault.kind == kind
            assert kind in FAULT_KINDS

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultPlan.parse("explode:task=1")

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan.parse("fail:task=1,frobnicate=2")

    def test_empty_spec_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan.parse("")

    def test_task_fail_needs_target(self):
        with pytest.raises(ValueError):
            Fault(kind="task_fail")

    def test_bandwidth_needs_positive_factor(self):
        with pytest.raises(ValueError):
            Fault(kind="bandwidth_degrade", factor=0.0)

    def test_roundtrip_dict(self):
        plan = FaultPlan.parse("fail:task=3,attempts=2;stall:worker=1,duration=1e-5")
        assert FaultPlan.from_dict(plan.to_dict()) == plan

    def test_coerce(self):
        plan = FaultPlan.parse("fail:task=1")
        assert FaultPlan.coerce(plan) is plan
        assert FaultPlan.coerce("fail:task=1") == plan
        assert FaultPlan.coerce(plan.to_dict()) == plan
        assert FaultPlan.coerce(None) is None

    def test_for_region_matching(self):
        plan = FaultPlan.parse("fail:task=1,region=loop")
        assert plan.for_region("my_loop", 0) is not None
        assert plan.for_region("kernel", 3) is None
        assert plan.for_region("kernel", 3, attempt=0) is None

    def test_attempts_gate(self):
        # attempts=1: the fault arms only on attempt 0; retries run clean
        plan = FaultPlan.parse("fail:task=0,attempts=1")
        assert plan.for_region("loop", 0, attempt=0) is not None
        assert plan.for_region("loop", 0, attempt=1) is None


class TestPolicy:
    def test_defaults(self):
        pol = Policy()
        assert pol.max_retries == 0
        assert pol.on_failure == "raise"

    def test_validation(self):
        with pytest.raises(ValueError):
            Policy(max_retries=-1)
        with pytest.raises(ValueError):
            Policy(on_failure="shrug")
        with pytest.raises(ValueError):
            Policy(timeout=0.0)

    def test_backoff_schedule(self):
        pol = Policy(max_retries=3, backoff=1e-6, backoff_factor=2.0)
        assert pol.retry_delay(0) == 1e-6
        assert pol.retry_delay(1) == 2e-6
        assert pol.retry_delay(2) == 4e-6

    def test_coerce_roundtrip(self):
        pol = Policy(max_retries=2, backoff=1e-6, on_failure="continue")
        assert Policy.coerce(pol.to_dict()) == pol
        assert Policy.coerce(None) is None


# ---------------------------------------------------------------------------
# Table III error-mode table
# ---------------------------------------------------------------------------
class TestErrorModes:
    @pytest.mark.parametrize("version,mode", [
        ("omp_for", "cancel"),
        ("omp_task", "cancel"),
        ("cilk_for", "none"),
        ("cilk_spawn", "poison"),
        ("cxx_thread", "rethrow"),
        ("cxx_async", "rethrow"),
    ])
    def test_registry_versions(self, version, mode):
        executor = "stealing" if version == "cilk_spawn" else ""
        if version == "cilk_for":
            executor = "stealing_loop"
        assert error_mode(version, executor) == mode
        assert mode in ERROR_MODES

    def test_accelerator_models_have_no_error_handling(self):
        assert error_mode("cuda") == "none"
        assert error_mode("openacc") == "none"

    def test_pthread_async_cancel(self):
        assert error_mode("pthread") == "async_cancel"

    def test_modes_match_feature_table(self):
        # Table III: supported error handling <-> a mode that acts on it
        expectations = {
            "OpenMP": "omp", "TBB": "tbb", "C++11": "cxx",
            "PThreads": "pthread", "OpenCL": "opencl",
        }
        for model in ALL_MODELS:
            prefix = expectations.get(model.name)
            if prefix is None:
                continue
            assert model.error_handling.supported
            assert error_mode(prefix) != "none"


# ---------------------------------------------------------------------------
# end-to-end: run_program with faults and recovery policies
# ---------------------------------------------------------------------------
def _fib_program(ctx, n=10):
    from repro.core.registry import get_workload

    return get_workload("fib").build("cilk_spawn", ctx.machine, n=n)


class TestRunProgramFaults:
    def test_fault_free_run_is_bit_identical(self):
        ctx = ExecContext()
        prog = _fib_program(ctx)
        base = run_program(prog, 4, ctx, "cilk_spawn")
        again = run_program(prog, 4, ctx, "cilk_spawn", faults=None, policy=None)
        assert base.time == again.time

    def test_failure_without_policy_raises(self):
        ctx = ExecContext()
        with pytest.raises(RegionFailedError) as err:
            run_program(_fib_program(ctx), 4, ctx, "cilk_spawn", faults="fail:task=5")
        assert err.value.attempts == 1

    def test_retry_recovers(self):
        ctx = ExecContext()
        res = run_program(
            _fib_program(ctx), 4, ctx, "cilk_spawn",
            faults="fail:task=5,attempts=1",
            policy={"max_retries": 1, "backoff": 1e-6},
        )
        assert len(res.regions) == 2  # failed attempt + clean retry
        first = res.regions[0].meta["fault"]
        assert first["failed"] and first["recovery"] == 1e-6
        assert "fault" not in res.regions[1].meta
        check_result(res, ctx=ctx).raise_if_failed()

    def test_retries_are_deterministic(self):
        ctx = ExecContext()
        kwargs = dict(
            faults="fail:task=5,attempts=1",
            policy={"max_retries": 2, "backoff": 1e-6},
        )
        r1 = run_program(_fib_program(ctx), 4, ctx, "cilk_spawn", **kwargs)
        r2 = run_program(_fib_program(ctx), 4, ctx, "cilk_spawn", **kwargs)
        assert r1.time == r2.time
        assert [r.time for r in r1.regions] == [r.time for r in r2.regions]

    def test_on_failure_continue(self):
        ctx = ExecContext()
        res = run_program(
            _fib_program(ctx), 4, ctx, "cilk_spawn",
            faults="fail:task=5", policy={"on_failure": "continue"},
        )
        doc = res.regions[-1].meta["fault"]
        assert doc["failed"] and doc["useful"] == 0.0 and doc["wasted"] > 0.0

    def test_timeout_marks_failure(self):
        ctx = ExecContext()
        clean = run_program(_fib_program(ctx), 4, ctx, "cilk_spawn")
        res = run_program(
            _fib_program(ctx), 4, ctx, "cilk_spawn",
            faults="stall:worker=0,duration=1",  # stall >> region time
            policy={"timeout": clean.time * 2, "on_failure": "continue"},
        )
        doc = res.regions[-1].meta["fault"]
        assert doc["failed"] and doc["kind"] == "timeout"

    def test_retry_budget_exhausted_raises_with_attempts(self):
        ctx = ExecContext()
        with pytest.raises(RegionFailedError) as err:
            run_program(
                _fib_program(ctx), 4, ctx, "cilk_spawn",
                faults="fail:task=5,attempts=99",
                policy={"max_retries": 2, "backoff": 1e-6},
            )
        assert err.value.attempts == 3

    def test_summary_accounting(self):
        ctx = ExecContext()
        res = run_program(
            _fib_program(ctx), 4, ctx, "cilk_spawn",
            faults="fail:task=5,attempts=1",
            policy={"max_retries": 1, "backoff": 1e-6},
        )
        s = fault_summary(res)
        assert s["failed_regions"] == 1
        assert s["retries"] == 1
        assert s["wasted_seconds"] > 0
        assert s["useful_seconds"] > 0  # the clean retry's work
        assert s["recovery_seconds"] == 1e-6

    def test_metrics_expose_fault_counters(self):
        from repro.obs.metrics import result_metrics

        ctx = ExecContext()
        res = run_program(
            _fib_program(ctx), 4, ctx, "cilk_spawn",
            faults="fail:task=5,attempts=1",
            policy={"max_retries": 1, "backoff": 1e-6},
        )
        m = result_metrics(res).to_dict()
        assert m["counters"]["region_failures"] == 1
        assert m["counters"]["retries"] == 1
        assert m["gauges"]["wasted_work_seconds"] > 0
        assert m["gauges"]["useful_work_seconds"] > 0
        assert m["gauges"]["recovery_seconds"] == 1e-6

    def test_perf_faults_degrade_without_failing(self):
        ctx = ExecContext()
        clean = run_program(_fib_program(ctx), 4, ctx, "cilk_spawn")
        res = run_program(
            _fib_program(ctx), 4, ctx, "cilk_spawn",
            # factor is a bandwidth multiplier: 0.25 = quarter bandwidth
            faults="bandwidth:factor=0.25,duration=1",
        )
        doc = res.regions[0].meta["fault"]
        assert not doc["failed"]
        assert res.time > clean.time
        check_result(res, ctx=ctx).raise_if_failed()


# ---------------------------------------------------------------------------
# Table III demos
# ---------------------------------------------------------------------------
#: Every demo at p=4 under its default spec: ``repr`` of the region
#: time and the ``meta["fault"]`` document, bit for bit.
_DEMO_PINS = {
    "C++11": (
        "8.985454545454545e-05",
        {
            "kind": "task_fail", "error": "injected fault", "mode": "rethrow",
            "time": 3.545454545454545e-05, "failed": True, "cancelled": False,
            "cancel_time": 0.0, "issued_after_cancel": 0, "skipped": 0, "useful": 0.0,
            "wasted": 0.00013963636363636367, "triggered": [["task_fail", 1.8e-05]],
        },
    ),
    "CUDA": (
        "0.00018833333333333335",
        {
            "kind": "task_fail", "error": "injected fault", "mode": "none",
            "time": 9.833333333333334e-05, "failed": False, "cancelled": False,
            "cancel_time": 0.0, "issued_after_cancel": 0, "skipped": 0, "useful": 0.0,
            "wasted": 8.333333333333334e-06, "triggered": [["task_fail", 9e-05]],
        },
    ),
    "Charm++": (
        "2.074153846153846e-05",
        {
            "kind": "task_fail", "error": "injected fault", "mode": "msg_loss",
            "time": 3.4076923076923077e-06, "failed": True, "cancelled": False,
            "cancel_time": 0.0, "issued_after_cancel": 0, "skipped": 0, "useful": 0.0,
            "wasted": 7.384615384615384e-05,
            "triggered": [["task_fail", 1.0999999999999998e-06]],
        },
    ),
    "Cilk Plus": (
        "4.338355222725089e-05",
        {
            "kind": "task_fail", "error": "injected fault", "mode": "none",
            "time": 5.12e-07, "failed": False, "cancelled": False, "cancel_time": 0.0,
            "issued_after_cancel": 0, "skipped": 0, "useful": 0.0,
            "wasted": 0.00014117820890900354,
            "triggered": [["task_fail", 4.520000000000001e-07]],
        },
    ),
    "HPX": (
        "0.0003125399999999993",
        {
            "kind": "task_fail", "error": "injected fault", "mode": "future_poison",
            "time": 8.490000000000002e-06, "failed": True, "cancelled": False,
            "cancel_time": 0.0, "issued_after_cancel": 0, "skipped": 65, "useful": 0.0,
            "wasted": 0.0004952999999999963,
            "triggered": [["task_fail", 7.640000000000001e-06]],
        },
    ),
    "MPI": (
        "3.1076923076923076e-06",
        {
            "kind": "task_fail", "error": "injected fault", "mode": "rank_fail",
            "time": 2.3076923076923077e-06, "failed": True, "cancelled": True,
            "cancel_time": 2.3076923076923077e-06, "issued_after_cancel": 0,
            "skipped": 28, "useful": 0.0, "wasted": 9.23076923076923e-06,
            "triggered": [["task_fail", 0.0]],
        },
    ),
    "OpenACC": (
        "0.00018833333333333335",
        {
            "kind": "task_fail", "error": "injected fault", "mode": "none",
            "time": 9.833333333333334e-05, "failed": False, "cancelled": False,
            "cancel_time": 0.0, "issued_after_cancel": 0, "skipped": 0, "useful": 0.0,
            "wasted": 8.333333333333334e-06, "triggered": [["task_fail", 9e-05]],
        },
    ),
    "OpenCL": (
        "9.833333333333334e-05",
        {
            "kind": "task_fail", "error": "injected fault", "mode": "rethrow",
            "time": 9.833333333333334e-05, "failed": True, "cancelled": True,
            "cancel_time": 9.833333333333334e-05, "issued_after_cancel": 0,
            "skipped": 1, "useful": 0.0, "wasted": 8.333333333333334e-06,
            "triggered": [["task_fail", 9e-05]],
        },
    ),
    "OpenMP": (
        "6.857692307692308e-06",
        {
            "kind": "task_fail", "error": "injected fault", "mode": "cancel",
            "time": 4.0038461538461534e-06, "failed": True, "cancelled": True,
            "cancel_time": 4.0038461538461534e-06, "issued_after_cancel": 0,
            "skipped": 58, "useful": 0.0, "wasted": 6.9230769230769225e-06,
            "triggered": [["task_fail", 2.85e-06]],
        },
    ),
    "PThreads": (
        "2.5365454545454544e-05",
        {
            "kind": "task_fail", "error": "injected fault", "mode": "async_cancel",
            "time": 2.2865454545454545e-05, "failed": True, "cancelled": True,
            "cancel_time": 2.2865454545454545e-05, "issued_after_cancel": 0,
            "skipped": 63, "useful": 0.0, "wasted": 1.0865454545454544e-05,
            "triggered": [["task_fail", 1.2e-05]],
        },
    ),
    "TBB": (
        "5.21e-06",
        {
            "kind": "task_fail", "error": "injected fault", "mode": "poison",
            "time": 3.6719999999999997e-06, "failed": True, "cancelled": True,
            "cancel_time": 3.6719999999999997e-06, "issued_after_cancel": 0,
            "skipped": 689, "useful": 0.0, "wasted": 6.8e-06,
            "triggered": [["task_fail", 2.822e-06]],
        },
    ),
}


class TestDemos:
    def test_every_supported_model_has_a_demo(self):
        for model in ALL_MODELS:
            if model.error_handling.supported:
                assert model.name in FAULT_DEMOS, model.name

    def test_every_model_row_is_covered(self):
        # the "x" rows are demos too (run to completion, wasted work)
        assert set(FAULT_DEMOS) == {m.name for m in ALL_MODELS}

    def test_feature_cells_cross_link_demos(self):
        for model in ALL_MODELS:
            assert model.error_handling.demo == f"faults:{model.name}"

    def test_unknown_demo_rejected(self):
        with pytest.raises(KeyError):
            run_demo("Fortran coarrays")

    @pytest.mark.parametrize("name", sorted(FAULT_DEMOS))
    def test_demo_is_pinned(self, name):
        res = run_demo(name, nthreads=4)
        time, doc = _DEMO_PINS[name]
        assert repr(res.time) == time
        assert res.meta["fault"] == doc

    @pytest.mark.parametrize("name", sorted(FAULT_DEMOS))
    def test_demo_matches_declared_semantics(self, name):
        demo = FAULT_DEMOS[name]
        res = run_demo(name, nthreads=4)
        doc = res.meta["fault"]
        assert doc["mode"] == demo.mode
        assert bool(doc["failed"]) == demo.expect_failed
        assert bool(doc["cancelled"]) == demo.expect_cancelled
        if demo.expect_wasted:
            assert doc["wasted"] > 0
        check_region(res, ctx=ExecContext()).raise_if_failed()


# ---------------------------------------------------------------------------
# validation battery integration
# ---------------------------------------------------------------------------
class TestFaultValidation:
    def test_fault_matrix_passes(self):
        from repro.validate.faultcheck import run_fault_matrix

        rep = run_fault_matrix(threads=(1, 4))
        assert rep.ok, rep.describe()
        assert rep.checks > 100

    def test_fault_audit_rejects_bad_spec_before_running(self):
        from repro.validate import run_validation
        from repro.validate.faultcheck import run_fault_audit

        with pytest.raises(ValueError):
            run_fault_audit("explode:task=1")
        with pytest.raises(ValueError):
            run_validation(inject="explode:task=1", programs=0)

    def test_invariants_catch_broken_accounting(self):
        ctx = ExecContext()
        res = run_program(
            _fib_program(ctx), 4, ctx, "cilk_spawn",
            faults="fail:task=5", policy={"on_failure": "continue"},
        )
        doc = res.regions[-1].meta["fault"]
        doc["useful"] = doc["wasted"]  # cook the books
        rep = check_region(res.regions[-1], ctx=ctx)
        assert not rep.ok
        names = {v.invariant for v in rep.violations}
        assert "fault-accounting" in names
        assert "fault-failed-no-useful" in names

    def test_invariants_catch_issue_after_cancel(self):
        ctx = ExecContext()
        res = run_program(
            _fib_program(ctx), 4, ctx, "cilk_spawn",
            faults="fail:task=5", policy={"on_failure": "continue"},
        )
        doc = res.regions[-1].meta["fault"]
        doc["issued_after_cancel"] = 3
        rep = check_region(res.regions[-1], ctx=ctx)
        assert any(v.invariant == "fault-cancel-issues" for v in rep.violations)

    def test_invariants_catch_retry_after_success(self):
        ctx = ExecContext()
        res = run_program(
            _fib_program(ctx), 4, ctx, "cilk_spawn",
            faults="fail:task=5,attempts=1",
            policy={"max_retries": 1, "backoff": 1e-6},
        )
        # pretend the runner re-ran the region after its clean attempt
        res.regions.append(res.regions[0])
        rep = check_result(res, ctx=ctx)
        assert any(v.invariant == "fault-retry-idempotent" for v in rep.violations)


# ---------------------------------------------------------------------------
# sweep integration
# ---------------------------------------------------------------------------
class TestSweepFaults:
    def test_strict_policy_records_cell_errors(self, tmp_path):
        from repro.sweep import run_sweep

        sweep = run_sweep(
            "fib", versions=["cilk_spawn"], threads=(1, 2), params={"n": 10},
            cache=tmp_path, faults="fail:task=5",
        )
        assert len(sweep.errors) == 2
        # cached as errors too: the replay must not re-simulate
        replay = run_sweep(
            "fib", versions=["cilk_spawn"], threads=(1, 2), params={"n": 10},
            cache=tmp_path, faults="fail:task=5",
        )
        assert replay.counter("simulations") == 0
        assert len(replay.errors) == 2

    def test_cache_keys_distinguish_plans(self):
        from repro.core.experiment import ExperimentConfig
        from repro.sweep import cache_key
        from repro.sweep.cells import expand_cells

        ctx = ExecContext()
        cfg = ExperimentConfig("fib", ("cilk_spawn",), (1,), {"n": 10})
        plain = expand_cells(cfg)[0]
        f1 = expand_cells(cfg, FaultPlan.parse("fail:task=5").to_dict())[0]
        f2 = expand_cells(cfg, FaultPlan.parse("fail:task=6").to_dict())[0]
        keys = {cache_key(c, ctx) for c in (plain, f1, f2)}
        assert len(keys) == 3


# ---------------------------------------------------------------------------
# task-graph workloads under injection (ISSUE 8)
# ---------------------------------------------------------------------------
class TestTaskGraphFaults:
    """The Task Bench dependency-grid workload obeys the same
    fault-accounting contract as the hand-written kernels."""

    def _taskbench(self, ctx, version):
        from repro.workloads.taskgraph import program

        return program(
            version, machine=ctx.machine, pattern="stencil",
            width=4, steps=3, grain=1e-6,
        )

    @pytest.mark.parametrize("version", ["omp_task", "cilk_spawn"])
    def test_useful_plus_wasted_equals_busy(self, version):
        ctx = ExecContext()
        res = run_program(
            self._taskbench(ctx, version), 4, ctx, version,
            faults="fail:task=5", policy={"on_failure": "continue"},
        )
        region = res.regions[-1]
        doc = region.meta["fault"]
        assert doc["failed"] and doc["wasted"] > 0.0
        # every busy second is accounted exactly once: useful + wasted
        # must equal the region's total busy time
        assert doc["useful"] + doc["wasted"] == pytest.approx(region.total_busy)
        check_result(res, ctx=ctx).raise_if_failed()

    def test_injected_graph_run_is_deterministic(self):
        ctx = ExecContext()
        kwargs = dict(
            faults="fail:task=5,attempts=1",
            policy={"max_retries": 1, "backoff": 1e-6},
        )
        prog = self._taskbench(ctx, "omp_task")
        r1 = run_program(prog, 4, ctx, "omp_task", **kwargs)
        r2 = run_program(self._taskbench(ctx, "omp_task"), 4, ctx, "omp_task", **kwargs)
        assert r1.time == r2.time
        assert len(r1.regions) == 2  # failed attempt + clean retry
        s = fault_summary(r1)
        assert s["failed_regions"] == 1 and s["retries"] == 1


# ---------------------------------------------------------------------------
# a fault handle that never fires changes nothing
# ---------------------------------------------------------------------------
def _irregular_space():
    import numpy as np

    from repro.sim.task import IterSpace

    rng = np.random.default_rng(7)
    work = rng.uniform(1e-8, 3e-7, 6000)
    membytes = rng.uniform(0.0, 400.0, 6000)
    return IterSpace.from_profile(work, membytes, locality=0.8, name="irregular")


def _loop_case(run, **params):
    return lambda p, ctx, tracer, faults: run(
        _irregular_space(), p, ctx, tracer=tracer, faults=faults, **params
    )


def _undeferred_fib(p, ctx, tracer, faults):
    from repro.kernels import fib
    from repro.runtime.workstealing import run_stealing_graph

    return run_stealing_graph(
        fib.graph(12), 1, ctx.with_costs(atomic_op=3e-9), deque="locked",
        undeferred_single=True, per_task_overhead="atomic_op", tracer=tracer, faults=faults,
    )


def _inert_cases():
    from repro.runtime import amt
    from repro.runtime.offload import run_offload_loop
    from repro.runtime.threadpool import run_threadpool_loop
    from repro.runtime.worksharing import run_worksharing_loop
    from repro.runtime.workstealing import run_stealing_loop

    ws = run_worksharing_loop
    pool = run_threadpool_loop
    return {
        # case: (executor run, Table III mode of its model)
        "omp_static": (_loop_case(ws, schedule="static"), "cancel"),
        "omp_static_chunk": (_loop_case(ws, schedule="static", chunk=37), "cancel"),
        "omp_dynamic": (_loop_case(ws, schedule="dynamic", chunk=41), "cancel"),
        "omp_guided": (_loop_case(ws, schedule="guided", reduction=True), "cancel"),
        "pthread_pool": (_loop_case(pool, mode="thread", nchunks=24), "async_cancel"),
        "cxx_async_pool": (_loop_case(pool, mode="async", nchunks=9), "rethrow"),
        "persistent_pool": (
            _loop_case(pool, mode="thread", nchunks=12, persistent=True), "async_cancel"
        ),
        "charm_loop": (_loop_case(amt.run_charm_loop), "msg_loss"),
        "hpx_loop": (_loop_case(amt.run_hpx_loop), "future_poison"),
        "mpi_loop": (_loop_case(amt.run_mpi_loop, nchunks=11), "rank_fail"),
        "cilk_for": (_loop_case(run_stealing_loop, style="cilk_for"), "none"),
        "offload": (
            _loop_case(run_offload_loop, to_bytes=3e5, from_bytes=1e5), "rethrow"
        ),
        "omp_task_p1": (_undeferred_fib, "cancel"),
    }


class TestInertFaultHandle:
    """A fault handle whose faults never fire leaves every number of a
    run bit-identical to the fault-free run: time, per-worker stats,
    meta (apart from the fault document) and the traced timeline."""

    @staticmethod
    def _observe(run, p, ctx, faults):
        from dataclasses import asdict

        from repro.obs.tracer import Tracer

        tracer = Tracer()
        traced = run(p, ctx, tracer, faults() if faults else None)
        plain = run(p, ctx, None, faults() if faults else None)
        meta = {k: v for k, v in traced.meta.items() if k != "fault"}
        return (
            plain.time, [asdict(w) for w in plain.workers],
            traced.time, [asdict(w) for w in traced.workers], meta,
            tracer.spans, tracer.instants,
        )

    @pytest.mark.parametrize("handle", ["empty", "never_fires"])
    @pytest.mark.parametrize("p", [1, 3, 4])
    @pytest.mark.parametrize("case", sorted(_inert_cases()))
    def test_inert_handle_is_bit_identical(self, case, p, handle):
        from repro.faults import RegionFaults

        run, mode = _inert_cases()[case]
        faults = [] if handle == "empty" else [Fault("task_fail", task=1_000_000_000)]
        ctx = ExecContext()
        base = self._observe(run, p, ctx, None)
        inert = self._observe(run, p, ctx, lambda: RegionFaults(faults, mode))
        assert inert == base
