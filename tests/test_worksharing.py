"""Tests for the fork-join worksharing executor."""

import numpy as np
import pytest

from repro.runtime.worksharing import chunk_edges, run_worksharing_loop
from repro.sim.task import IterSpace


@pytest.fixture
def uniform():
    return IterSpace.uniform(10_000, 1e-7, 0.0)


class TestChunkEdges:
    def test_exact_division(self):
        e = chunk_edges(100, 25)
        assert list(e) == [0, 25, 50, 75, 100]

    def test_remainder_chunk(self):
        e = chunk_edges(10, 4)
        assert list(e) == [0, 4, 8, 10]

    def test_chunk_larger_than_space(self):
        e = chunk_edges(5, 100)
        assert list(e) == [0, 5]

    def test_invalid_chunk(self):
        with pytest.raises(ValueError):
            chunk_edges(10, 0)


class TestStatic:
    def test_perfect_balance_uniform_loop(self, uniform, ctx):
        res = run_worksharing_loop(uniform, 4, ctx, fork=False, barrier=False)
        busys = [w.busy for w in res.workers]
        assert max(busys) == pytest.approx(min(busys), rel=1e-6)
        assert res.total_tasks == 4

    def test_time_shrinks_with_threads(self, uniform, ctx):
        t1 = run_worksharing_loop(uniform, 1, ctx).time
        t8 = run_worksharing_loop(uniform, 8, ctx).time
        assert t8 < t1

    def test_single_thread_time_is_total_work(self, uniform, ctx):
        res = run_worksharing_loop(uniform, 1, ctx, fork=False, barrier=False)
        assert res.time == pytest.approx(uniform.total_work, rel=1e-3)

    def test_fork_and_barrier_charged(self, uniform, ctx):
        bare = run_worksharing_loop(uniform, 8, ctx, fork=False, barrier=False).time
        full = run_worksharing_loop(uniform, 8, ctx).time
        expected = ctx.costs.fork_cost(8) + ctx.costs.barrier_cost(8)
        assert full - bare == pytest.approx(expected, rel=1e-6)

    def test_static_chunked_round_robin(self, ctx):
        # skewed front half; round-robin chunks rebalance vs contiguous
        work = np.concatenate([np.full(500, 10e-7), np.full(500, 1e-7)])
        space = IterSpace.from_profile(work, max_blocks=100)
        contiguous = run_worksharing_loop(space, 2, ctx, fork=False, barrier=False)
        rr = run_worksharing_loop(space, 2, ctx, chunk=10, fork=False, barrier=False)
        assert rr.time < contiguous.time

    def test_imbalanced_loop_bounded_by_max_chunk(self, ctx):
        work = np.zeros(100)
        work[0] = 1.0  # one huge iteration
        space = IterSpace.from_profile(work)
        res = run_worksharing_loop(space, 4, ctx, fork=False, barrier=False)
        assert res.time >= 1.0

    def test_reduction_adds_combine(self, uniform, ctx):
        plain = run_worksharing_loop(uniform, 8, ctx).time
        red = run_worksharing_loop(uniform, 8, ctx, reduction=True).time
        assert red - plain == pytest.approx(8 * ctx.costs.reduction_per_thread, rel=1e-6)

    def test_work_conservation(self, uniform, ctx):
        res = run_worksharing_loop(uniform, 6, ctx)
        assert res.total_busy == pytest.approx(uniform.total_work, rel=1e-3)


class TestDynamicGuided:
    def test_dynamic_balances_skew(self, ctx):
        # triangular profile (LUD-like): contiguous static chunks are
        # grossly unequal, dynamic chunks rebalance
        work = np.linspace(10, 0.1, 2000) * 1e-6
        space = IterSpace.from_profile(work, max_blocks=2000)
        static = run_worksharing_loop(space, 8, ctx, schedule="static")
        dynamic = run_worksharing_loop(space, 8, ctx, schedule="dynamic", chunk=25)
        assert dynamic.time < static.time

    def test_dynamic_dispatch_serializes(self, ctx):
        # tiny chunks: dispatch lock dominates and caps speedup
        space = IterSpace.uniform(10_000, 1e-9)
        res = run_worksharing_loop(space, 16, ctx, schedule="dynamic", chunk=1)
        # 10k dispatches x dispatch cost is a hard serial floor
        assert res.time >= 10_000 * ctx.costs.dynamic_dispatch * 0.99

    def test_dynamic_default_chunk(self, uniform, ctx):
        res = run_worksharing_loop(uniform, 4, ctx, schedule="dynamic")
        assert res.meta["nchunks"] > 4

    def test_guided_fewer_chunks_than_dynamic(self, uniform, ctx):
        dyn = run_worksharing_loop(uniform, 4, ctx, schedule="dynamic", chunk=50)
        gui = run_worksharing_loop(uniform, 4, ctx, schedule="guided", chunk=50)
        assert gui.meta["nchunks"] < dyn.meta["nchunks"]

    def test_guided_chunks_shrink(self, uniform, ctx):
        res = run_worksharing_loop(uniform, 4, ctx, schedule="guided", chunk=10)
        assert res.meta["schedule"] == "guided"
        assert res.time < uniform.total_work  # still parallel

    def test_dynamic_work_conservation(self, uniform, ctx):
        res = run_worksharing_loop(uniform, 5, ctx, schedule="dynamic", chunk=100)
        assert res.total_busy == pytest.approx(uniform.total_work, rel=1e-3)

    def test_chunk_explosion_guard(self, ctx):
        space = IterSpace.uniform(100_000_000, 1e-9)
        with pytest.raises(ValueError, match="chunks"):
            run_worksharing_loop(space, 4, ctx, schedule="dynamic", chunk=1)


class TestValidation:
    def test_unknown_schedule(self, uniform, ctx):
        with pytest.raises(ValueError, match="unknown schedule"):
            run_worksharing_loop(uniform, 4, ctx, schedule="weird")

    def test_nonpositive_threads(self, uniform, ctx):
        with pytest.raises(ValueError):
            run_worksharing_loop(uniform, 0, ctx)


class TestBarrierSpans:
    """Every traced worker waits at the end barrier in one ``barrier``
    span, from its last chunk end to fork + loop time + barrier cost,
    whatever the schedule and whether or not faults are live."""

    @pytest.mark.parametrize("faults", [None, "stall:worker=1,duration=2e-5", "fail:task=3"])
    @pytest.mark.parametrize("schedule", ["static", "dynamic", "guided"])
    def test_one_barrier_span_per_worker(self, schedule, faults, ctx):
        from repro.faults import FaultPlan
        from repro.obs.tracer import Tracer

        space = IterSpace.from_profile(
            np.linspace(1e-8, 4e-7, 3000), np.full(3000, 64.0), name="tri"
        )
        p = 4
        tracer = Tracer()
        live = None if faults is None else FaultPlan.parse(faults).for_region(
            space.name, 0, mode="cancel"
        )
        res = run_worksharing_loop(space, p, ctx, schedule=schedule, tracer=tracer, faults=live)
        bar_end = ctx.costs.fork_cost(p) + res.meta["loop_time"] + ctx.costs.barrier_cost(p)
        assert ctx.costs.barrier_cost(p) > 0.0
        for w in range(p):
            chunks = [s for s in tracer.spans if s.worker == w and s.kind == "chunk"]
            barriers = [s for s in tracer.spans if s.worker == w and s.kind == "barrier"]
            assert len(barriers) == 1
            assert barriers[0].start == max(s.end for s in chunks)
            assert barriers[0].end == bar_end
