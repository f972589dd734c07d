"""Tests for the work-stealing scheduler and its loop front-ends."""

import pytest

from repro.runtime.base import ExecContext
from repro.runtime.workstealing import (
    StealingScheduler,
    cilk_for_graph,
    default_grainsize,
    flat_chunk_graph,
    run_stealing_graph,
    run_stealing_loop,
    scatter_penalty,
)
from repro.sim.task import IterSpace, TaskGraph


def chain_graph(n, work=1e-6):
    g = TaskGraph("chain")
    prev = None
    for _ in range(n):
        prev = g.add(work, deps=[prev] if prev is not None else [])
    return g


def wide_graph(n, work=1e-6):
    g = TaskGraph("wide")
    for _ in range(n):
        g.add(work)
    return g


class TestScheduler:
    def test_all_tasks_complete(self, small_ctx):
        g = wide_graph(50)
        res = StealingScheduler(g, 4, small_ctx).run()
        assert res.total_tasks == 50
        assert res.time > 0

    def test_empty_graph(self, small_ctx):
        res = StealingScheduler(TaskGraph(), 4, small_ctx).run()
        assert res.time == 0.0

    def test_work_conservation(self, small_ctx):
        g = wide_graph(64, 2e-6)
        res = StealingScheduler(g, 4, small_ctx).run()
        assert res.total_busy == pytest.approx(64 * 2e-6, rel=1e-6)

    def test_chain_cannot_parallelize(self, small_ctx):
        g = chain_graph(20, 1e-6)
        res = StealingScheduler(g, 4, small_ctx).run()
        assert res.time >= 20e-6

    def test_parallel_speedup_on_wide_graph(self, small_ctx):
        g = wide_graph(256, 50e-6)
        t1 = StealingScheduler(wide_graph(256, 50e-6), 1, small_ctx).run().time
        t4 = StealingScheduler(g, 4, small_ctx).run().time
        assert t4 < t1 / 2.5

    def test_deterministic_given_seed(self, small_ctx):
        t_a = StealingScheduler(wide_graph(128, 5e-6), 4, small_ctx).run().time
        t_b = StealingScheduler(wide_graph(128, 5e-6), 4, small_ctx).run().time
        assert t_a == t_b

    def test_seed_changes_schedule(self, small_machine):
        ctx1 = ExecContext(machine=small_machine, seed=1)
        ctx2 = ExecContext(machine=small_machine, seed=2)
        t1 = StealingScheduler(wide_graph(200, 3e-6), 6, ctx1).run()
        t2 = StealingScheduler(wide_graph(200, 3e-6), 6, ctx2).run()
        # same totals, possibly different schedule
        assert t1.total_tasks == t2.total_tasks

    def test_makespan_at_least_greedy_bounds(self, small_ctx):
        g = wide_graph(100, 10e-6)
        res = StealingScheduler(g, 4, small_ctx).run()
        t1 = g.total_work()
        tinf = g.critical_path()
        assert res.time >= t1 / 4 * 0.999
        assert res.time >= tinf * 0.999

    def test_steals_happen_with_multiple_workers(self, small_ctx):
        g = wide_graph(64, 20e-6)
        res = StealingScheduler(g, 4, small_ctx).run()
        assert res.meta["steals"] > 0

    def test_no_steals_single_worker(self, small_ctx):
        g = wide_graph(32)
        res = StealingScheduler(g, 1, small_ctx).run()
        assert res.meta["steals"] == 0

    def test_locked_deque_slower_per_task(self, small_ctx):
        g1 = wide_graph(500, 0.2e-6)
        g2 = wide_graph(500, 0.2e-6)
        t_the = StealingScheduler(g1, 1, small_ctx, deque="the").run().time
        t_locked = StealingScheduler(g2, 1, small_ctx, deque="locked").run().time
        assert t_locked > t_the

    def test_undeferred_single_skips_deque(self, small_ctx):
        g = wide_graph(100, 1e-6)
        res = StealingScheduler(
            g, 1, small_ctx, deque="locked", undeferred_single=True
        ).run()
        assert res.meta.get("undeferred") is True
        spawn = small_ctx.costs.omp_task_spawn
        assert res.time == pytest.approx(100 * (1e-6 + spawn), rel=1e-6)

    def test_undeferred_only_at_one_thread(self, small_ctx):
        g = wide_graph(100, 1e-6)
        res = StealingScheduler(
            g, 2, small_ctx, deque="locked", undeferred_single=True
        ).run()
        assert "undeferred" not in res.meta

    def test_per_task_overhead_charged(self, small_ctx):
        g = wide_graph(50, 1e-6)
        base = StealingScheduler(wide_graph(50, 1e-6), 1, small_ctx).run().time
        extra = StealingScheduler(g, 1, small_ctx, per_task_overhead=1e-6).run().time
        assert extra == pytest.approx(base + 50e-6, rel=0.01)

    def test_reducer_views_merge_at_end(self, small_ctx):
        g = wide_graph(64, 20e-6)
        plain = StealingScheduler(wide_graph(64, 20e-6), 4, small_ctx).run()
        red = StealingScheduler(g, 4, small_ctx, reducer=True).run()
        assert red.meta["reducer_views"] == red.total_steals
        if red.total_steals:
            assert red.time > plain.time * 0.99

    def test_explicit_spawn_cost_overrides_default(self, small_ctx):
        g = wide_graph(50, 1e-6)
        cheap = StealingScheduler(wide_graph(50, 1e-6), 1, small_ctx, spawn_cost=0.0).run()
        costly = StealingScheduler(g, 1, small_ctx, spawn_cost=1e-5).run()
        assert costly.time > cheap.time

    def test_task_level_spawn_cost_wins(self, small_ctx):
        g = TaskGraph()
        g.add(1e-6, spawn_cost=1e-3)
        res = StealingScheduler(g, 1, small_ctx, spawn_cost=0.0).run()
        assert res.time >= 1e-3

    def test_invalid_thread_count(self, small_ctx):
        with pytest.raises(ValueError):
            StealingScheduler(wide_graph(5), 0, small_ctx)


class TestLoopFrontEnds:
    def test_default_grainsize_caps_at_2048(self):
        assert default_grainsize(100_000_000, 4) == 2048

    def test_default_grainsize_eighth_per_thread(self):
        assert default_grainsize(800, 10) == 10  # ceil(800/80)

    def test_default_grainsize_at_least_one(self):
        assert default_grainsize(5, 100) == 1

    def test_cilk_for_graph_covers_space(self, small_ctx):
        space = IterSpace.uniform(1000, 1e-8, 4.0)
        g = cilk_for_graph(space, 100, small_ctx)
        leaves = [t for t in g.tasks if t.tag == "chunk"]
        splits = [t for t in g.tasks if t.tag == "split"]
        assert sum(t.work for t in leaves) == pytest.approx(space.total_work, rel=1e-6)
        assert len(leaves) == len(splits) + 1  # binary tree
        assert 1000 / 100 <= len(leaves) <= 2 * (1000 / 100)

    def test_cilk_for_graph_single_leaf(self, small_ctx):
        space = IterSpace.uniform(10, 1e-8)
        g = cilk_for_graph(space, 100, small_ctx)
        assert len(g) == 1
        assert g.tasks[0].tag == "chunk"

    def test_cilk_for_penalty_inflates_bytes(self, small_ctx):
        space = IterSpace.uniform(1000, 1e-8, 8.0)
        g = cilk_for_graph(space, 100, small_ctx, bytes_penalty=2.0)
        leaves = [t for t in g.tasks if t.tag == "chunk"]
        assert sum(t.membytes for t in leaves) == pytest.approx(2 * space.total_bytes, rel=1e-6)

    def test_flat_chunk_graph(self, small_ctx):
        space = IterSpace.uniform(1000, 1e-8, 4.0)
        g = flat_chunk_graph(space, 8, small_ctx)
        assert len(g) == 8
        assert all(not t.deps for t in g.tasks)
        assert sum(t.work for t in g.tasks) == pytest.approx(space.total_work, rel=1e-6)

    def test_flat_chunk_graph_caps_at_niter(self, small_ctx):
        space = IterSpace.uniform(3, 1e-8)
        g = flat_chunk_graph(space, 10, small_ctx)
        assert len(g) == 3

    def test_flat_chunk_graph_rejects_zero(self, small_ctx):
        with pytest.raises(ValueError):
            flat_chunk_graph(IterSpace.uniform(10, 1e-8), 0, small_ctx)

    def test_run_stealing_loop_cilk_style(self, small_ctx):
        space = IterSpace.uniform(10_000, 1e-8, 8.0)
        res = run_stealing_loop(space, 4, small_ctx, style="cilk_for")
        assert res.meta["style"] == "cilk_for"
        assert res.total_busy >= space.total_work * 0.99

    def test_run_stealing_loop_flat_default_chunks(self, small_ctx):
        space = IterSpace.uniform(10_000, 1e-8)
        res = run_stealing_loop(space, 4, small_ctx, style="flat")
        assert res.total_tasks == 4

    def test_run_stealing_loop_chunks_per_thread(self, small_ctx):
        space = IterSpace.uniform(10_000, 1e-8)
        res = run_stealing_loop(space, 4, small_ctx, style="flat", chunks_per_thread=3)
        assert res.total_tasks == 12

    def test_run_stealing_loop_unknown_style(self, small_ctx):
        with pytest.raises(ValueError):
            run_stealing_loop(IterSpace.uniform(10, 1e-8), 2, small_ctx, style="magic")

    def test_reducer_inflates_loop_work(self, small_ctx):
        space = IterSpace.uniform(100_000, 1e-9)
        plain = run_stealing_loop(space, 1, small_ctx, style="flat")
        red = run_stealing_loop(space, 1, small_ctx, style="flat", reducer=True)
        assert red.time > plain.time + 100_000 * small_ctx.costs.reducer_access * 0.9


class TestScatterPenalty:
    def space(self, bytes_per_iter=8.0, locality=1.0):
        return IterSpace.uniform(1_000_000, 1e-9, bytes_per_iter, locality)

    def test_no_penalty_single_thread(self, ctx):
        assert scatter_penalty(self.space(), 1000, 1, ctx) == 1.0

    def test_no_penalty_without_bytes(self, ctx):
        assert scatter_penalty(self.space(bytes_per_iter=0.0), 1000, 8, ctx) == 1.0

    def test_small_chunks_penalized(self, ctx):
        fine = scatter_penalty(self.space(), 100_000, 4, ctx)  # 80B chunks
        coarse = scatter_penalty(self.space(), 4, 4, ctx)  # 2MB chunks
        assert fine > coarse

    def test_numa_term_kicks_in_across_sockets(self, ctx):
        single = scatter_penalty(self.space(), 4, 18, ctx)
        dual = scatter_penalty(self.space(), 4, 19, ctx)
        assert dual > single

    def test_saturation_fades_fine_chunk_term(self, ctx):
        p_low = scatter_penalty(self.space(), 100_000, 2, ctx)
        p_high = scatter_penalty(self.space(), 100_000, 18, ctx)
        assert p_high < p_low

    def test_penalty_bounded_below_by_one(self, ctx):
        for n in (1, 2, 8, 36, 72):
            assert scatter_penalty(self.space(), 1000, n, ctx) >= 1.0


class TestGraphEntryExit:
    def test_entry_exit_costs_added(self, small_ctx):
        g = wide_graph(10, 1e-6)
        base = run_stealing_graph(wide_graph(10, 1e-6), 2, small_ctx).time
        wrapped = run_stealing_graph(g, 2, small_ctx, entry="cilk", exit="taskwait").time
        costs = small_ctx.costs
        assert wrapped == base + costs.cilk_spawn + costs.taskwait
