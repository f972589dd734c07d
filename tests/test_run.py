"""Tests for region dispatch and program execution."""

import pytest

from repro.core.registry import WORKLOADS
from repro.faults.demos import FAULT_DEMOS
from repro.faults.semantics import _EXECUTOR_MODES
from repro.models import cilk, cxx11, openmp
from repro.runtime import run as run_mod
from repro.runtime.base import ThreadExplosionError
from repro.runtime.run import execute_region, run_program
from repro.sim.task import IterSpace, LoopRegion, Program, SerialRegion, TaskGraph, TaskRegion
from repro.sim.tiers import DEFAULT_CALIBRATION, estimate_region
from repro.validate.differential import graph_runtime_matrix, loop_runtime_matrix

LOOP_EXECUTORS = tuple(run_mod.LOOP_EXECUTORS.values())
GRAPH_EXECUTORS = tuple(run_mod.GRAPH_EXECUTORS.values())


@pytest.fixture
def space():
    return IterSpace.uniform(1000, 1e-7, 0.0)


class TestSerial:
    def test_serial_region_runs_on_one_thread(self, ctx):
        res = execute_region(SerialRegion(1e-3), 36, ctx)
        assert res.time == pytest.approx(1e-3)
        assert res.nthreads == 1

    def test_serial_region_memory(self, ctx):
        res = execute_region(SerialRegion(0.0, membytes=1e7), 4, ctx)
        assert res.time == pytest.approx(1e7 / ctx.machine.bandwidth_per_thread(1))


class TestDispatch:
    def test_worksharing_loop(self, space, ctx):
        res = execute_region(openmp.parallel_for(space), 4, ctx)
        assert res.meta["schedule"] == "static"

    def test_stealing_loop_cilk(self, space, ctx):
        res = execute_region(cilk.cilk_for(space), 4, ctx)
        assert res.meta["style"] == "cilk_for"

    def test_stealing_loop_flat(self, space, ctx):
        res = execute_region(openmp.task_loop(space), 4, ctx)
        assert res.meta["style"] == "flat"

    def test_threadpool_loop(self, space, ctx):
        res = execute_region(cxx11.thread_for(space), 4, ctx)
        assert res.meta["mode"] == "thread"

    def test_task_region_stealing(self, ctx):
        g = TaskGraph()
        g.add(1e-6)
        res = execute_region(openmp.task_graph(g), 2, ctx)
        assert res.time > 0

    def test_task_region_threadpool(self, ctx):
        g = TaskGraph()
        g.add(1e-6)
        res = execute_region(cxx11.async_graph(g), 2, ctx)
        assert res.time > 0

    def test_unknown_loop_executor(self, space, ctx):
        with pytest.raises(ValueError, match="unknown loop executor"):
            execute_region(LoopRegion(space, "mystery"), 2, ctx)

    def test_unknown_task_executor(self, ctx):
        g = TaskGraph()
        g.add(1.0)
        with pytest.raises(ValueError, match="unknown task executor"):
            execute_region(TaskRegion(g, "mystery"), 2, ctx)

    def test_unknown_region_type(self, ctx):
        with pytest.raises(TypeError):
            execute_region("not a region", 2, ctx)

    def test_unknown_entry_marker(self, space, ctx):
        region = LoopRegion(space, "stealing_loop", {"entry": "hyperdrive"})
        with pytest.raises(ValueError, match="unknown entry marker"):
            execute_region(region, 2, ctx)

    def test_unknown_exit_marker(self, space, ctx):
        region = LoopRegion(space, "stealing_loop", {"exit": "warp"})
        with pytest.raises(ValueError, match="unknown exit marker"):
            execute_region(region, 2, ctx)


class TestDispatchTables:
    """Every executor name the code base puts on a region is a key of
    ``execute_region``'s two tables and of the Table III mode table, and
    tier 0 answers each one."""

    def test_tables_and_modes_name_the_same_executors(self):
        loops, graphs = set(run_mod.LOOP_EXECUTORS), set(run_mod.GRAPH_EXECUTORS)
        assert not loops & graphs
        assert loops | graphs == set(_EXECUTOR_MODES)

    def test_every_executor_in_use_is_dispatched(self, ctx):
        loops, graphs = set(), set()
        for spec in WORKLOADS.values():
            params = dict(spec.validation_params or spec.default_params)
            for version in spec.versions:
                for region in spec.build(version, ctx.machine, **params):
                    if isinstance(region, LoopRegion):
                        loops.add(region.executor)
                    elif isinstance(region, TaskRegion):
                        graphs.add(region.executor)
        loops |= {executor for executor, _ in loop_runtime_matrix().values()}
        graphs |= {executor for executor, _ in graph_runtime_matrix().values()}
        for demo in FAULT_DEMOS.values():
            region = demo.region(ctx)
            (loops if isinstance(region, LoopRegion) else graphs).add(demo.executor)
        assert loops <= set(run_mod.LOOP_EXECUTORS)
        assert graphs <= set(run_mod.GRAPH_EXECUTORS)
        # the registry, the oracle and the demos reach every table entry
        assert loops | graphs == set(_EXECUTOR_MODES)

    @pytest.mark.parametrize("p", [1, 4])
    def test_tier0_answers_every_registry_region(self, ctx, p):
        kinds = set(DEFAULT_CALIBRATION.scales) | {"exact"}
        for spec in WORKLOADS.values():
            params = dict(spec.validation_params or spec.default_params)
            for version in spec.versions:
                for region in spec.build(version, ctx.machine, **params):
                    try:
                        kind, res = estimate_region(region, p, ctx)
                    except ThreadExplosionError:
                        continue  # a thread-per-task version past the cap
                    assert kind in kinds, (spec.name, version, region.name, kind)
                    assert res.time >= 0.0

    @pytest.mark.parametrize("p", [1, 4])
    @pytest.mark.parametrize("executor", sorted(_EXECUTOR_MODES))
    def test_tier0_answers_every_executor(self, executor, p, space, ctx):
        kinds = set(DEFAULT_CALIBRATION.scales) | {"exact"}
        if executor in run_mod.LOOP_EXECUTORS:
            region = LoopRegion(space, executor)
        else:
            g = TaskGraph("g")
            g.add(1e-6, deps=[g.add(1e-6)])
            region = TaskRegion(g, executor)
        kind, res = estimate_region(region, p, ctx)
        assert kind in kinds
        assert res.time > 0.0

    def test_tier0_rejects_unknown_executors(self, space, ctx):
        g = TaskGraph()
        g.add(1.0)
        with pytest.raises(ValueError, match="unknown loop executor"):
            estimate_region(LoopRegion(space, "mystery"), 2, ctx)
        with pytest.raises(ValueError, match="unknown task executor"):
            estimate_region(TaskRegion(g, "mystery"), 2, ctx)

    @pytest.mark.parametrize("executor,params,typo", [
        ("worksharing", {"schedule": "dynamic", "chunks": 4}, "chunks"),
        ("stealing_loop", {"style": "flat", "grain_size": 7}, "grain_size"),
        ("stealing", {"dequeue": "locked"}, "dequeue"),
    ], ids=["ws_dynamic", "steal_flat", "steal_graph"])
    def test_both_tiers_reject_a_misspelt_param(self, executor, params, typo, space, ctx):
        """Tier 0 reads region params through the executor's signature,
        so a name the executor does not take fails at both tiers."""
        if executor in run_mod.LOOP_EXECUTORS:
            region = LoopRegion(space, executor, params)
        else:
            g = TaskGraph("g")
            g.add(1e-6, deps=[g.add(1e-6)])
            region = TaskRegion(g, executor, params)
        for tier in (estimate_region, execute_region):
            with pytest.raises(TypeError, match=f"unexpected keyword argument '{typo}'"):
                tier(region, 4, ctx)

    @pytest.mark.parametrize("executor,params", [
        ("stealing_loop", {"style": "cilk_for", "per_task_overhead": "tbb_joint"}),
        ("stealing_loop", {"style": "flat", "per_task_overhead": "atomic"}),
        ("stealing", {"spawn_cost": "tbb_spwn"}),
        ("stealing", {"per_task_overhead": "atomic"}),
    ], ids=["steal_cilkfor", "steal_flat", "steal_graph-spawn", "steal_graph-per_task"])
    def test_both_tiers_reject_a_misspelt_cost_name(self, executor, params, space, ctx):
        """A region's cost names are ``CostModel`` fields, resolved by
        ``workstealing.task_costs`` at both tiers."""
        if executor in run_mod.LOOP_EXECUTORS:
            region = LoopRegion(space, executor, params)
        else:
            g = TaskGraph("g")
            g.add(1e-6, deps=[g.add(1e-6)])
            region = TaskRegion(g, executor, params)
        for tier in (estimate_region, execute_region):
            with pytest.raises(AttributeError, match="CostModel"):
                tier(region, 4, ctx)


class TestProgram:
    def test_times_accumulate(self, space, ctx):
        prog = Program("p").add(SerialRegion(1e-3)).add(openmp.parallel_for(space))
        res = run_program(prog, 4, ctx, "omp_for")
        assert res.time == pytest.approx(sum(r.time for r in res.regions))
        assert len(res.regions) == 2
        assert res.version == "omp_for"

    def test_version_from_meta(self, space, ctx):
        prog = Program("p", meta={"version": "cilk_for"}).add(cilk.cilk_for(space))
        res = run_program(prog, 4, ctx)
        assert res.version == "cilk_for"

    def test_pool_setup_charged_once(self, space, ctx):
        prog = Program("p", meta={"pool_setup": True})
        prog.add(cxx11.thread_for(space, persistent=True))
        prog.add(cxx11.thread_for(space, persistent=True))
        res = run_program(prog, 8, ctx)
        no_setup = Program("q")
        no_setup.add(cxx11.thread_for(space, persistent=True))
        no_setup.add(cxx11.thread_for(space, persistent=True))
        res2 = run_program(no_setup, 8, ctx)
        expected = 8 * (ctx.costs.thread_create + ctx.costs.thread_join)
        assert res.time - res2.time == pytest.approx(expected, rel=1e-6)

    def test_invalid_threads(self, ctx):
        with pytest.raises(ValueError):
            run_program(Program("p"), 0, ctx)

    def test_empty_program(self, ctx):
        res = run_program(Program("empty"), 4, ctx)
        assert res.time == 0.0


@pytest.mark.parametrize("nthreads", [0, -2], ids=["zero", "negative"])
@pytest.mark.parametrize(
    "executor", LOOP_EXECUTORS + GRAPH_EXECUTORS, ids=lambda f: f.__name__
)
def test_executor_rejects_nonpositive_threads(executor, nthreads, space, ctx):
    """Every public executor refuses a thread count below one, instead of
    returning a result for ``nthreads=0`` or dividing by zero."""
    if executor in GRAPH_EXECUTORS:
        work = TaskGraph("g")
        work.add(1e-6)
    else:
        work = space
    with pytest.raises(ValueError, match="nthreads must be positive"):
        executor(work, nthreads, ctx)
