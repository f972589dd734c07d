"""Tests for region dispatch and program execution."""

import pytest

from repro.models import cilk, cxx11, openmp
from repro.runtime import amt
from repro.runtime.offload import run_offload_loop
from repro.runtime.run import execute_region, run_program
from repro.runtime.threadpool import run_threadpool_graph, run_threadpool_loop
from repro.runtime.worksharing import run_worksharing_loop
from repro.runtime.workstealing import run_stealing_graph, run_stealing_loop
from repro.sim.task import IterSpace, LoopRegion, Program, SerialRegion, TaskGraph, TaskRegion

LOOP_EXECUTORS = (
    run_worksharing_loop, run_stealing_loop, run_threadpool_loop, run_offload_loop,
    amt.run_charm_loop, amt.run_hpx_loop, amt.run_mpi_loop,
)
GRAPH_EXECUTORS = (
    run_stealing_graph, run_threadpool_graph,
    amt.run_charm_graph, amt.run_hpx_graph, amt.run_mpi_graph,
)


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
