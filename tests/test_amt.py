"""Unit tests for the AMT runtime family: Charm++ / HPX / MPI executors.

Covers the six executors in :mod:`repro.runtime.amt` directly (loop and
graph forms), the model front-ends that build their regions, the
``resolve_models`` family resolver behind ``repro validate --model``,
Table III fault semantics through :func:`run_program`, and the tier-0
exactness contract (the static charm/mpi placements are analyzable, so
their estimators reproduce the reference executor bit-for-bit).
"""

import numpy as np
import pytest

from repro.core.registry import get_workload
from repro.faults.semantics import error_mode
from repro.kernels import fib as fib_kernel
from repro.models import AMT_VERSIONS, resolve_models
from repro.models.charm import chare_for, chare_graph
from repro.models.hpx import async_for, future_graph
from repro.models.mpi import rank_for, rank_graph
from repro.obs.tracer import Tracer
from repro.runtime.amt import (
    _MinTree,
    _run_amt_graph,
    run_charm_graph,
    run_charm_loop,
    run_hpx_graph,
    run_hpx_loop,
    run_mpi_graph,
    run_mpi_loop,
)
from repro.runtime.base import ExecContext
from repro.runtime.run import execute_region, run_program
from repro.sim.task import IterSpace, LoopRegion, TaskGraph, TaskRegion
from repro.sim.tiers import DEFAULT_CALIBRATION, estimate_region
from repro.workloads.taskgraph import taskbench_graph

LOOP_RUNNERS = {"charm": run_charm_loop, "hpx": run_hpx_loop, "mpi": run_mpi_loop}
GRAPH_RUNNERS = {"charm": run_charm_graph, "hpx": run_hpx_graph, "mpi": run_mpi_graph}
FAULT_POLICY = {"max_retries": 0, "backoff": 1e-6, "on_failure": "continue"}


@pytest.fixture(scope="module")
def ctx():
    return ExecContext()


def flat_space(niter=100_000, nblocks=16, flops=4.0):
    work = np.full(nblocks, niter / nblocks * flops)
    return IterSpace(niter, work, np.zeros(nblocks), name="flat")


def fault_docs(result):
    return [r.meta["fault"] for r in result.regions if "fault" in r.meta]


class TestLoopExecutors:
    @pytest.mark.parametrize("version", AMT_VERSIONS)
    def test_basic_run_shape(self, ctx, version):
        space = flat_space()
        res = LOOP_RUNNERS[version](space, 4, ctx)
        assert res.time > 0
        assert res.nthreads == 4
        assert len(res.workers) == 4
        assert res.meta["mode"] == version
        # AMT workers persist across the program: no fork/join threads
        assert res.meta["nthreads_created"] == 0
        assert sum(w.tasks for w in res.workers) == res.meta["ntasks_created"]

    @pytest.mark.parametrize("version", AMT_VERSIONS)
    def test_parallel_speedup(self, ctx, version):
        space = flat_space()
        t1 = LOOP_RUNNERS[version](space, 1, ctx).time
        t8 = LOOP_RUNNERS[version](space, 8, ctx).time
        assert t8 < t1

    @pytest.mark.parametrize("version", AMT_VERSIONS)
    def test_deterministic(self, ctx, version):
        space = flat_space()
        a = LOOP_RUNNERS[version](space, 6, ctx)
        b = LOOP_RUNNERS[version](space, 6, ctx)
        assert a.time == b.time
        assert [(w.busy, w.overhead, w.tasks) for w in a.workers] == [
            (w.busy, w.overhead, w.tasks) for w in b.workers
        ]

    @pytest.mark.parametrize("version", AMT_VERSIONS)
    def test_busy_matches_chunk_spans(self, ctx, version):
        tracer = Tracer()
        res = LOOP_RUNNERS[version](flat_space(), 4, ctx, tracer=tracer)
        traced = sum(s.duration for s in tracer.spans if s.kind == "chunk")
        assert traced == pytest.approx(sum(w.busy for w in res.workers))

    def test_charm_overdecomposes_four_per_pe(self, ctx):
        res = run_charm_loop(flat_space(), 4, ctx)
        assert res.meta["ntasks_created"] == 16

    def test_mpi_one_chunk_per_rank_and_collective(self, ctx):
        tracer = Tracer()
        res = run_mpi_loop(flat_space(), 4, ctx, tracer=tracer)
        assert res.meta["ntasks_created"] == 4
        # the region ends in a log-tree collective: one barrier span per rank
        assert sum(1 for s in tracer.spans if s.kind == "barrier") == 4

    def test_mpi_serial_has_no_collective(self, ctx):
        tracer = Tracer()
        run_mpi_loop(flat_space(), 1, ctx, tracer=tracer)
        assert not any(s.kind == "barrier" for s in tracer.spans)


class TestGraphExecutors:
    @pytest.mark.parametrize("version", AMT_VERSIONS)
    def test_aggregate_accounting(self, ctx, version):
        g = fib_kernel.graph(12)
        res = GRAPH_RUNNERS[version](g, 4, ctx)
        assert res.meta["aggregate_workers"] is True
        assert len(res.workers) == 1
        (w,) = res.workers
        assert w.busy == pytest.approx(g.total_work())
        assert w.tasks == len(g) == res.meta["ntasks_created"]
        # makespan cannot beat perfect scaling of the busy work
        assert res.time >= w.busy / 4

    @pytest.mark.parametrize("version", ["charm", "hpx"])
    def test_parallelism_helps(self, ctx, version):
        g = fib_kernel.graph(13)
        t1 = GRAPH_RUNNERS[version](g, 1, ctx).time
        t8 = GRAPH_RUNNERS[version](g, 8, ctx).time
        assert t8 < t1

    def test_mpi_speedup_needs_a_partitionable_graph(self, ctx):
        # the static block partition parallelizes a wide independent level,
        # but an irregular recursion tree pays cross-rank latency instead
        wide = taskbench_graph("stencil", width=64, steps=1, grain=5e-6)
        assert run_mpi_graph(wide, 8, ctx).time < run_mpi_graph(wide, 1, ctx).time
        fib = fib_kernel.graph(13)
        assert run_mpi_graph(fib, 8, ctx).time >= run_mpi_graph(fib, 1, ctx).time

    @pytest.mark.parametrize("version", AMT_VERSIONS)
    def test_deterministic(self, ctx, version):
        g = fib_kernel.graph(11)
        assert GRAPH_RUNNERS[version](g, 5, ctx).time == GRAPH_RUNNERS[version](g, 5, ctx).time

    def test_charm_messages_are_transfer_spans(self, ctx):
        tracer = Tracer()
        run_charm_graph(fib_kernel.graph(10), 4, ctx, tracer=tracer)
        kinds = {s.kind for s in tracer.spans}
        assert "transfer" in kinds and "task" in kinds

    def test_hpx_continuations_are_dispatch_spans(self, ctx):
        tracer = Tracer()
        run_hpx_graph(fib_kernel.graph(10), 4, ctx, tracer=tracer)
        kinds = {s.kind for s in tracer.spans}
        assert "dispatch" in kinds and "task" in kinds
        assert "transfer" not in kinds

    def test_mpi_cross_rank_deps_are_transfer_spans(self, ctx):
        tracer = Tracer()
        run_mpi_graph(fib_kernel.graph(10), 4, ctx, tracer=tracer)
        assert any(s.kind == "transfer" for s in tracer.spans)

    def test_invariants_hold_through_run_program(self, ctx):
        for version in AMT_VERSIONS:
            prog = get_workload("fib").build(version, ctx.machine, n=12)
            res = run_program(prog, 8, ctx, version=version, validate=True)
            assert res.time > 0


def reference_hpx_worker(pe_free, ready):
    """The original one-line greedy placement, kept as the oracle."""
    p = len(pe_free)
    return min(range(p), key=lambda k: (max(pe_free[k], ready), k))


def placement_of(pe_free):
    """A placement tree holding ``pe_free``, built by update steps."""
    tree = _MinTree(len(pe_free))
    for k, free in enumerate(pe_free):
        tree.set(k, free)
    return tree


class TestHpxPlacement:
    def test_matches_reference_on_random_vectors(self):
        rng = np.random.default_rng(2017)
        for _ in range(5000):
            p = int(rng.integers(1, 41))
            # few distinct values: exact ties between workers, and a
            # ``ready`` that often equals some pe_free[k] exactly
            levels = rng.uniform(0.0, 1e-3, size=int(rng.integers(1, 6)))
            pe_free = [float(x) for x in rng.choice(levels, size=p)]
            ready = float(rng.choice([*levels, 0.0, levels.min() / 2, 2e-3]))
            assert placement_of(pe_free).pick(ready) == reference_hpx_worker(pe_free, ready)

    @pytest.mark.parametrize("p", [1, 2, 3, 5, 7, 8, 9, 16, 17, 31, 36, 40])
    def test_pick_and_update_sequences_match_reference(self, p):
        """Interleaved pick and update steps, as a walk issues them: the
        tree answers every pick as the scan over the current free times
        does, with exact ties, a ``ready`` equal to some free time,
        ``ready`` below every free time and free times that also fall."""
        rng = np.random.default_rng(p)
        pe_free = [0.0] * p
        tree = _MinTree(p)
        for step in range(600):
            values = sorted(set(pe_free))
            choice = int(rng.integers(0, 4))
            if choice == 0:
                ready = float(rng.choice(values))      # equal to a free time
            elif choice == 1:
                ready = values[0] / 2                 # everyone still busy
            else:
                ready = float(rng.uniform(0.0, values[-1] + 1.0))
            k = tree.pick(ready)
            assert k == reference_hpx_worker(pe_free, ready), (step, pe_free, ready)
            # the walk's update: the worker frees again later, or (in a
            # few steps) at an existing free time, which makes a tie
            if rng.random() < 0.2:
                new = float(rng.choice(values))
            else:
                new = max(pe_free[k], ready) + float(rng.integers(1, 4))
            pe_free[k] = new
            tree.set(k, new)
            if rng.random() < 0.1:                     # an arbitrary worker drops
                j = int(rng.integers(0, p))
                pe_free[j] = float(rng.choice(values))
                tree.set(j, pe_free[j])

    @pytest.mark.parametrize("pe_free,ready,expected", [
        ([0.0, 0.0, 0.0], 0.0, 0),        # all idle: lowest index
        ([3.0, 1.0, 1.0], 0.5, 1),        # all busy: first to free up
        ([3.0, 2.0, 1.0], 2.5, 1),        # idle workers: lowest index, not the earliest
        ([3.0, 2.0, 1.0], 2.0, 1),        # ready equal to a free time counts as idle
        ([5.0], 1.0, 0),
    ])
    def test_rule(self, pe_free, ready, expected):
        assert placement_of(pe_free).pick(ready) == expected
        assert reference_hpx_worker(pe_free, ready) == expected

    @pytest.mark.parametrize("seed", range(6))
    def test_graph_walk_places_like_the_reference(self, ctx, seed):
        """The HPX graph walk runs the tree's pick and update inline:
        each task must still run on the worker ``reference_hpx_worker``
        picks from the free times the walk's own spans imply, on random
        DAGs whose few distinct works and dep counts make exact ties."""
        rng = np.random.default_rng(seed)
        g = TaskGraph("ties")
        for tid in range(int(rng.integers(30, 200))):
            ndeps = int(rng.integers(0, min(tid, 3) + 1))
            deps = sorted(rng.choice(tid, ndeps, replace=False).tolist()) if ndeps else ()
            g.add(float(rng.choice([1e-6, 2e-6])), deps=deps)
        p = int(rng.integers(2, 13))
        tracer = Tracer()
        _run_amt_graph(g, p, ctx, "hpx", tracer, None)
        dispatch = [s for s in tracer.spans if s.kind == "dispatch"]
        tasks = [s for s in tracer.spans if s.kind == "task"]
        assert len(dispatch) == len(tasks) == len(g)
        pe_free = [0.0] * p
        ties = 0
        for tid, (pre, task) in enumerate(zip(dispatch, tasks)):
            deps = g.dep_idx[g.dep_ptr[tid]:g.dep_ptr[tid + 1]]
            ready = max((tasks[d].end for d in deps), default=0.0)
            k = reference_hpx_worker(pe_free, ready)
            assert pre.worker == task.worker == k, (tid, pe_free, ready)
            assert pre.start == max(pe_free[k], ready)
            ties += [max(f, ready) for f in pe_free].count(max(pe_free[k], ready)) > 1
            pe_free[k] = task.end
        assert ties > 0


class TestFaultSemantics:
    def test_mode_resolution(self):
        assert error_mode("charm") == "msg_loss"
        assert error_mode("hpx") == "future_poison"
        assert error_mode("mpi") == "rank_fail"
        assert error_mode("", "charm_graph") == "msg_loss"
        assert error_mode("", "hpx_loop") == "future_poison"
        assert error_mode("", "mpi_loop") == "rank_fail"

    def test_charm_runs_to_completion(self, ctx):
        prog = get_workload("axpy").build("charm", ctx.machine, n=120_000)
        res = run_program(prog, 4, ctx, version="charm",
                          faults="fail:task=2", policy=FAULT_POLICY)
        (doc,) = [d for d in fault_docs(res) if d["failed"]]
        assert doc["mode"] == "msg_loss"
        assert not doc["cancelled"]
        assert doc["skipped"] == 0  # message-driven execution cannot cancel
        assert doc["wasted"] > 0 and doc["useful"] == 0.0

    def test_hpx_poisons_dependent_futures(self, ctx):
        prog = get_workload("fib").build("hpx", ctx.machine, n=10)
        res = run_program(prog, 4, ctx, version="hpx",
                          faults="fail:task=5", policy=FAULT_POLICY)
        (doc,) = [d for d in fault_docs(res) if d["failed"]]
        assert doc["mode"] == "future_poison"
        assert not doc["cancelled"]
        assert doc["skipped"] > 0  # transitive dependents never fire

    def test_mpi_aborts_the_job(self, ctx):
        prog = get_workload("axpy").build("mpi", ctx.machine, n=120_000)
        res = run_program(prog, 4, ctx, version="mpi",
                          faults="fail:task=1", policy=FAULT_POLICY)
        (doc,) = [d for d in fault_docs(res) if d["failed"]]
        assert doc["mode"] == "rank_fail"
        assert doc["cancelled"]
        assert doc["cancel_time"] > 0
        assert doc["useful"] == 0.0


class TestFrontEnds:
    def test_loop_builders(self):
        space = flat_space()
        for build, executor in ((chare_for, "charm_loop"), (async_for, "hpx_loop"),
                                (rank_for, "mpi_loop")):
            region = build(space, reduction=True)
            assert isinstance(region, LoopRegion)
            assert region.executor == executor
            assert region.params["reduction"] is True

    def test_graph_builders(self):
        g = fib_kernel.graph(8)
        for build, executor in ((chare_graph, "charm_graph"), (future_graph, "hpx_graph"),
                                (rank_graph, "mpi_graph")):
            region = build(g)
            assert isinstance(region, TaskRegion)
            assert region.executor == executor
            assert region.graph_for(4) is g

    def test_graph_builder_accepts_callable(self):
        region = chare_graph(lambda p: fib_kernel.graph(8), name="lazy")
        assert len(region.graph_for(2)) == len(fib_kernel.graph(8))


class TestResolveModels:
    def test_family_expansion(self):
        assert resolve_models(["openmp"]) == ("omp_for", "omp_task")
        assert resolve_models(["charm++"]) == ("charm",)
        assert resolve_models(["parallex"]) == ("hpx",)

    def test_version_passthrough_and_case(self):
        assert resolve_models(["omp_task", "MPI"]) == ("omp_task", "mpi")

    def test_order_preserving_dedup(self):
        assert resolve_models(["mpi", "charm", "mpi"]) == ("mpi", "charm")

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown model 'corba'"):
            resolve_models(["corba"])


class TestTier0Exactness:
    @pytest.mark.parametrize("p", [1, 3, 8])
    @pytest.mark.parametrize("build,expected_kind", [
        (chare_graph, "amt_charm"),
        (rank_graph, "amt_mpi"),
    ])
    def test_static_placements_are_exact(self, ctx, p, build, expected_kind):
        # charm/mpi place tasks statically, so the occupancy-coupled
        # forward pass reproduces the reference executor exactly
        region = build(fib_kernel.graph(12))
        kind, est = estimate_region(region, p, ctx)
        ref = execute_region(region, p, ctx)
        assert kind == expected_kind
        assert est.time == pytest.approx(ref.time, rel=1e-9)
        assert DEFAULT_CALIBRATION.scale(kind) == pytest.approx(1.0)
        assert DEFAULT_CALIBRATION.bound(kind) == pytest.approx(0.02)

    @pytest.mark.parametrize("p", [1, 4, 16])
    def test_hpx_bound_covers_fib(self, ctx, p):
        # greedy placement is not statically analyzable; the calibrated
        # scale + bound must still cover the reference time
        region = future_graph(fib_kernel.graph(12))
        kind, est = estimate_region(region, p, ctx)
        ref = execute_region(region, p, ctx)
        assert kind == "amt_hpx"
        scaled = est.time * DEFAULT_CALIBRATION.scale(kind)
        assert abs(scaled - ref.time) <= DEFAULT_CALIBRATION.bound(kind) * ref.time
