"""Tests for the workload IR: tasks, graphs, iteration spaces, programs."""

import time

import numpy as np
import pytest

from repro.sim.task import (
    IterSpace,
    LoopRegion,
    Program,
    SerialRegion,
    Task,
    TaskGraph,
    TaskRegion,
)


class TestTaskGraph:
    def test_add_returns_sequential_ids(self):
        g = TaskGraph()
        assert [g.add(1.0) for _ in range(3)] == [0, 1, 2]
        assert len(g) == 3

    def test_dependencies_build_successors(self):
        g = TaskGraph()
        a = g.add(1.0)
        b = g.add(1.0, deps=[a])
        c = g.add(1.0, deps=[a, b])
        assert g.successors[a] == [b, c]
        assert g.successors[b] == [c]
        assert g.roots == [a]
        assert g.indegrees() == [0, 1, 2]

    def test_forward_dep_rejected(self):
        g = TaskGraph()
        g.add(1.0)
        with pytest.raises(ValueError, match="unknown/future"):
            g.add(1.0, deps=[5])

    def test_self_dep_rejected(self):
        g = TaskGraph()
        with pytest.raises(ValueError):
            g.add(1.0, deps=[0])  # would be its own id

    def test_negative_work_rejected(self):
        with pytest.raises(ValueError):
            TaskGraph().add(-1.0)

    def test_bad_locality_rejected(self):
        with pytest.raises(ValueError):
            TaskGraph().add(1.0, locality=2.0)

    def test_total_work(self):
        g = TaskGraph()
        g.add(1.0)
        g.add(2.5)
        assert g.total_work() == pytest.approx(3.5)

    def test_critical_path_chain(self):
        g = TaskGraph()
        prev = g.add(1.0)
        for _ in range(4):
            prev = g.add(1.0, deps=[prev])
        assert g.critical_path() == pytest.approx(5.0)

    def test_critical_path_diamond(self):
        g = TaskGraph()
        a = g.add(1.0)
        b = g.add(5.0, deps=[a])
        c = g.add(1.0, deps=[a])
        g.add(1.0, deps=[b, c])
        assert g.critical_path() == pytest.approx(7.0)

    def test_critical_path_le_total_work(self):
        g = TaskGraph()
        a = g.add(3.0)
        g.add(2.0, deps=[a])
        g.add(4.0, deps=[a])
        assert g.critical_path() <= g.total_work()

    def test_validate_passes_on_wellformed(self):
        g = TaskGraph()
        a = g.add(1.0)
        g.add(1.0, deps=[a])
        g.validate()

    def test_empty_graph(self):
        g = TaskGraph()
        assert g.roots == []
        assert g.critical_path() == 0.0
        assert g.total_work() == 0.0


def _diamond():
    g = TaskGraph("diamond")
    a = g.add(1.0, tag="a")
    b = g.add(2.0, 64.0, 0.5, deps=[a], tag="b")
    c = g.add(3.0, deps=[a], spawn_cost=1e-7)
    g.add(4.0, deps=[b, c], tag="a")
    return g


def _without_critical_path(g: TaskGraph) -> TaskGraph:
    """``g`` rebuilt from its columns with no supplied critical path, so
    :meth:`TaskGraph.critical_path` runs the forward pass."""
    return TaskGraph.from_columns(
        g.name, g.work, g.membytes, g.locality, g.spawn_cost,
        tag_id=g.tag_id, tag_names=g.tag_names, dep_ptr=g.dep_ptr, dep_idx=g.dep_idx,
    )


class TestColumns:
    def test_columns_and_csr(self):
        g = _diamond()
        assert g.work == [1.0, 2.0, 3.0, 4.0]
        assert g.membytes == [0.0, 64.0, 0.0, 0.0]
        assert g.locality == [1.0, 0.5, 1.0, 1.0]
        assert g.spawn_cost == [0.0, 0.0, 1e-7, 0.0]
        assert [g.tag_names[i] for i in g.tag_id] == ["a", "b", "", "a"]
        assert (g.dep_ptr, g.dep_idx) == ([0, 0, 1, 2, 4], [0, 0, 1, 2])
        assert g.successor_index() == ([0, 2, 3, 4, 4], [1, 2, 3, 3])

    def test_tasks_view_builds_records(self):
        g = _diamond()
        assert g.tasks[1] == Task(1, 2.0, 64.0, 0.5, (0,), "b", 0.0)
        assert g.tasks[3] == Task(3, 4.0, deps=(1, 2), tag="a")
        assert len(g.tasks) == 4 and [t.tid for t in g.tasks] == [0, 1, 2, 3]
        # indexed like the list of records it replaces
        assert g.tasks[-1] == g.tasks[3] and g.tasks[-4] == g.tasks[0]
        assert g.tasks[1:3] == [g.tasks[1], g.tasks[2]] and g.tasks[::-2] == [g.tasks[3], g.tasks[1]]
        for bad in (4, -5):
            with pytest.raises(IndexError):
                g.tasks[bad]
        with pytest.raises(AttributeError):
            g.tasks = []

    def test_add_after_successor_index_rebuilds_it(self):
        g = _diamond()
        assert g.successors == [[1, 2], [3], [3], []]
        g.add(1.0, deps=[0, 3])
        g.add(1.0, deps=[1])
        assert g.successors == [[1, 2, 4], [3, 5], [3], [4], [], []]
        g.validate()

    def test_bulk_equals_incremental(self):
        g = _diamond()
        bulk = TaskGraph.from_columns(
            "diamond", g.work, g.membytes, g.locality, g.spawn_cost,
            tag_id=g.tag_id, tag_names=g.tag_names, dep_ptr=g.dep_ptr, dep_idx=g.dep_idx,
        )
        assert list(bulk.tasks) == list(g.tasks)
        assert bulk.successors == g.successors
        assert bulk.total_work() == g.total_work()
        assert bulk.expected_meta() == g.expected_meta()
        # one value stands for every task
        flat = TaskGraph.from_columns("flat", [1.0, 2.0], locality=0.5, tag_names=("x",))
        assert list(flat.tasks) == [Task(0, 1.0, 0.0, 0.5, (), "x"), Task(1, 2.0, 0.0, 0.5, (), "x")]
        assert flat.roots == [0, 1] and flat.successors == [[], []]
        # the bulk graph keeps growing through add()
        assert bulk.add(1.0, deps=[3], tag="b") == 4
        assert bulk.tasks[4] == Task(4, 1.0, deps=(3,), tag="b")

    @pytest.mark.parametrize("kwargs,match", [
        ({"spawn_cost": -1e-9}, "non-negative"),
        ({"locality": -0.1}, "locality must be in"),
        ({"membytes": [0.0, 0.0, 0.0]}, "equal length"),
        ({"locality": [1.0]}, "equal length"),
        ({"tag_id": [0, 0, 0]}, "equal length"),
        ({"dep_ptr": [0, 1], "dep_idx": [0]}, "equal length"),
        ({"dep_ptr": [0, 0, 2], "dep_idx": [0]}, "equal length"),
        ({"dep_ptr": [0, 1, 0], "dep_idx": []}, "non-decreasing"),
        ({"tag_id": [0, 1]}, "tag ids"),
    ])
    def test_bulk_rejects_bad_columns(self, kwargs, match):
        # per-task values are checked against add() in test_taskgraph.py
        args = {"work": [1.0, 1.0], **kwargs}
        with pytest.raises(ValueError, match=match):
            TaskGraph.from_columns("bad", **args)

    def test_validate_catches_a_corrupted_successor_entry(self):
        g = _diamond()
        g.validate()
        ptr, idx = g.successor_index()
        idx[1] = 3  # task 0's successors become [1, 3]
        with pytest.raises(ValueError, match="successor table out of sync"):
            g.validate()

    @pytest.mark.parametrize("column", ["work", "membytes", "spawn_cost"])
    def test_validate_rejects_a_nan_column_entry(self, column):
        g = _diamond()
        getattr(g, column)[2] = float("nan")
        with pytest.raises(ValueError, match="must be non-negative"):
            g.validate()

    def test_validate_catches_bad_deps_and_columns(self):
        g = _diamond()
        g.dep_idx[0] = 2  # task 1 now depends on the later task 2
        with pytest.raises(ValueError, match="task 1 depends on unknown/future task 2"):
            g.validate()
        g = _diamond()
        g.work.append(1.0)
        with pytest.raises(ValueError, match="equal length"):
            g.validate()

    def test_add_drops_a_supplied_critical_path(self):
        g = TaskGraph.from_columns("chain", [1.0, 2.0], dep_ptr=[0, 0, 1], dep_idx=[0],
                                   critical_path=3.0)
        assert g.critical_path() == 3.0
        g.add(4.0, deps=[1])
        assert g.critical_path() == 7.0
        g.validate()

    def test_validate_rejects_a_wrong_supplied_critical_path(self):
        g = TaskGraph.from_columns("chain", [1.0, 2.0], dep_ptr=[0, 0, 1], dep_idx=[0],
                                   critical_path=2.5)
        assert g.critical_path() == 2.5  # trusted until validated
        with pytest.raises(ValueError, match="critical path out of sync"):
            g.validate()

    @pytest.mark.parametrize("n", range(25))
    def test_fib_critical_path_is_the_forward_pass(self, n):
        from repro.kernels import fib

        g = fib.graph(n)
        assert g._cp is not None  # supplied by the builder's recurrence
        reference = _without_critical_path(g).critical_path()
        assert type(g.critical_path()) is float and g.critical_path() == reference
        g.validate()

    def test_validate_is_linear(self):
        from repro.kernels import fib

        g = fib.graph(22)
        g.successor_index()
        t0 = time.perf_counter()
        g.validate()
        assert time.perf_counter() - t0 < 1.0


class TestIterSpaceUniform:
    def test_totals(self):
        s = IterSpace.uniform(1000, 1e-6, 8.0)
        assert s.total_work == pytest.approx(1e-3)
        assert s.total_bytes == pytest.approx(8000.0)

    def test_chunk_cost_proportional(self):
        s = IterSpace.uniform(1000, 1e-6, 8.0)
        w, b = s.chunk_cost(0, 500)
        assert w == pytest.approx(5e-4)
        assert b == pytest.approx(4000.0)

    def test_chunk_cost_additive(self):
        s = IterSpace.uniform(997, 2e-6, 3.0)
        w1, b1 = s.chunk_cost(0, 400)
        w2, b2 = s.chunk_cost(400, 997)
        assert w1 + w2 == pytest.approx(s.total_work)
        assert b1 + b2 == pytest.approx(s.total_bytes)

    def test_empty_chunk_is_free(self):
        s = IterSpace.uniform(10, 1.0)
        assert s.chunk_cost(5, 5) == (0.0, 0.0)

    def test_out_of_range_rejected(self):
        s = IterSpace.uniform(10, 1.0)
        with pytest.raises(ValueError):
            s.chunk_cost(0, 11)
        with pytest.raises(ValueError):
            s.chunk_cost(-1, 5)
        with pytest.raises(ValueError):
            s.chunk_cost(7, 3)

    def test_chunk_costs_vectorized_matches_scalar(self):
        s = IterSpace.uniform(1000, 1e-6, 4.0)
        bounds = np.array([0, 100, 350, 999, 1000])
        ws, bs = s.chunk_costs(bounds)
        for i in range(len(bounds) - 1):
            w, b = s.chunk_cost(int(bounds[i]), int(bounds[i + 1]))
            assert ws[i] == pytest.approx(w)
            assert bs[i] == pytest.approx(b)

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            IterSpace.uniform(0, 1.0)
        with pytest.raises(ValueError):
            IterSpace(10, np.array([1.0]), np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            IterSpace(10, np.array([-1.0]), np.array([0.0]))
        with pytest.raises(ValueError):
            IterSpace.uniform(10, 1.0, locality=1.5)

    @pytest.mark.parametrize("column", ["work", "bytes"])
    def test_nan_block_cost_rejected(self, column):
        costs = {"work": np.array([1.0, 2.0]), "bytes": np.array([0.0, 8.0])}
        costs[column][1] = np.nan
        with pytest.raises(ValueError, match="block costs must be non-negative"):
            IterSpace(10, costs["work"], costs["bytes"])


class TestIterSpaceProfile:
    def test_from_profile_preserves_totals(self):
        rng = np.random.default_rng(1)
        work = rng.random(5000)
        s = IterSpace.from_profile(work, max_blocks=128)
        assert s.nblocks == 128
        assert s.total_work == pytest.approx(work.sum())

    def test_from_profile_exact_when_small(self):
        work = np.array([1.0, 2.0, 3.0, 4.0])
        s = IterSpace.from_profile(work)
        w, _ = s.chunk_cost(1, 3)
        assert w == pytest.approx(5.0)

    def test_skew_visible_at_block_resolution(self):
        work = np.concatenate([np.full(500, 1.0), np.full(500, 3.0)])
        s = IterSpace.from_profile(work, max_blocks=10)
        w_lo, _ = s.chunk_cost(0, 500)
        w_hi, _ = s.chunk_cost(500, 1000)
        assert w_hi == pytest.approx(3 * w_lo)

    def test_empty_profile_rejected(self):
        with pytest.raises(ValueError):
            IterSpace.from_profile(np.array([]))

    def test_bytes_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            IterSpace.from_profile(np.ones(5), np.ones(6))

    def test_with_extra_work_per_iter(self):
        s = IterSpace.uniform(1000, 1e-6, 8.0)
        s2 = s.with_extra_work_per_iter(1e-6)
        assert s2.total_work == pytest.approx(2e-3)
        assert s2.total_bytes == pytest.approx(s.total_bytes)
        assert s2.niter == s.niter

    def test_with_extra_zero_returns_self(self):
        s = IterSpace.uniform(10, 1.0)
        assert s.with_extra_work_per_iter(0.0) is s

    def test_with_extra_negative_rejected(self):
        with pytest.raises(ValueError):
            IterSpace.uniform(10, 1.0).with_extra_work_per_iter(-1.0)


class TestRegionsAndProgram:
    def test_program_accumulates_regions(self):
        prog = Program("p")
        prog.add(SerialRegion(1.0)).add(
            LoopRegion(IterSpace.uniform(10, 1.0), "worksharing")
        )
        assert len(prog) == 2
        assert prog.serial_work() == pytest.approx(1.0)

    def test_task_region_static_graph(self):
        g = TaskGraph()
        g.add(1.0)
        r = TaskRegion(g, "stealing")
        assert r.graph_for(4) is g

    def test_task_region_builder_gets_nthreads(self):
        seen = []

        def builder(p):
            seen.append(p)
            g = TaskGraph()
            g.add(float(p))
            return g

        r = TaskRegion(builder, "stealing")
        g = r.graph_for(7)
        assert seen == [7]
        assert g.tasks[0].work == 7.0

    def test_task_region_builder_type_checked(self):
        r = TaskRegion(lambda p: "nope", "stealing")
        with pytest.raises(TypeError):
            r.graph_for(2)

    def test_program_iterates_in_order(self):
        prog = Program("p")
        a, b = SerialRegion(1.0), SerialRegion(2.0)
        prog.add(a).add(b)
        assert list(prog) == [a, b]


@pytest.mark.parametrize("workload", ["fib", "lud", "bfs", "taskbench"])
def test_executors_and_estimators_index_the_columns(monkeypatch, workload):
    """No executor or tier-0 estimator reads the record views: every
    hot path indexes the columns."""
    from repro.core.registry import get_workload
    from repro.runtime.base import ExecContext
    from repro.runtime.run import run_program
    from repro.sim.tiers import estimate_program

    def forbidden(self):
        raise AssertionError("a hot path read a record view")

    monkeypatch.setattr(TaskGraph, "tasks", property(forbidden))
    monkeypatch.setattr(TaskGraph, "successors", property(forbidden))
    spec = get_workload(workload)
    ctx = ExecContext()
    for version in spec.versions:
        program = spec.build(version, ctx.machine, **spec.validation_params)
        for p in (1, 4):
            run_program(program, p, ctx, version, trace=True)
            estimate_program(program, p, ctx.with_fidelity(0), version)
