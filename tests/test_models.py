"""Tests for the programming-model front-ends (openmp / cilk / cxx11)."""

import pytest

from repro.models import TASK_ONLY_VERSIONS, VERSIONS, cilk, cxx11, openmp
from repro.sim.task import IterSpace, LoopRegion, TaskGraph, TaskRegion


@pytest.fixture
def space():
    return IterSpace.uniform(1000, 1e-7, 8.0)


class TestVersionsConstant:
    def test_six_versions(self):
        assert len(VERSIONS) == 6
        assert set(TASK_ONLY_VERSIONS) <= set(VERSIONS)

    def test_two_per_model(self):
        prefixes = [v.split("_")[0] for v in VERSIONS]
        assert prefixes.count("omp") == 2
        assert prefixes.count("cilk") == 2
        assert prefixes.count("cxx") == 2


class TestOpenMP:
    def test_parallel_for_defaults_static(self, space):
        r = openmp.parallel_for(space)
        assert isinstance(r, LoopRegion)
        assert r.executor == "worksharing"
        assert r.params["schedule"] == "static"
        assert r.params["fork"] and r.params["barrier"]

    def test_parallel_for_schedule_clause(self, space):
        r = openmp.parallel_for(space, schedule="dynamic", chunk=64)
        assert r.params["schedule"] == "dynamic"
        assert r.params["chunk"] == 64

    def test_task_loop_uses_locked_deques(self, space):
        r = openmp.task_loop(space)
        assert r.executor == "stealing_loop"
        assert r.params["deque"] == "locked"
        assert r.params["style"] == "flat"
        assert r.params["undeferred_single"] is True
        assert r.params["exit"] == "taskwait+barrier"

    def test_task_loop_reduction_atomic(self, space):
        r = openmp.task_loop(space, reduction=True)
        assert r.params["per_task_overhead"] == "atomic_op"

    def test_task_graph(self):
        g = TaskGraph()
        g.add(1.0)
        r = openmp.task_graph(g)
        assert isinstance(r, TaskRegion)
        assert r.params["deque"] == "locked"
        assert r.params["entry"] == "omp_parallel"

    def test_simd_hint_divides_compute_only(self, space):
        s = openmp.simd_hint(space, 4.0)
        assert s.total_work == pytest.approx(space.total_work / 4)
        assert s.total_bytes == pytest.approx(space.total_bytes)

    def test_simd_hint_rejects_subunit_width(self, space):
        with pytest.raises(ValueError):
            openmp.simd_hint(space, 0.5)


class TestCilk:
    def test_cilk_for_uses_the_deques(self, space):
        r = cilk.cilk_for(space)
        assert r.executor == "stealing_loop"
        assert r.params["deque"] == "the"
        assert r.params["style"] == "cilk_for"
        assert r.params["exit"] == "sync"

    def test_cilk_for_grainsize_pragma(self, space):
        r = cilk.cilk_for(space, grainsize=512)
        assert r.params["grainsize"] == 512

    def test_cilk_for_reducer(self, space):
        r = cilk.cilk_for(space, reducer=True)
        assert r.params["reducer"] is True

    def test_spawn_loop_flat_no_penalty_path(self, space):
        r = cilk.spawn_loop(space)
        assert r.params["style"] == "flat"
        assert r.params["deque"] == "the"

    def test_spawn_graph(self):
        g = TaskGraph()
        g.add(1.0)
        r = cilk.spawn_graph(g)
        assert r.params["deque"] == "the"
        assert r.params["entry"] == "cilk"

    def test_array_notation_matches_simd(self, space):
        a = cilk.array_notation_hint(space, 8.0)
        b = openmp.simd_hint(space, 8.0)
        assert a.total_work == pytest.approx(b.total_work)


class TestCxx11:
    def test_base_cutoff(self):
        assert cxx11.base_cutoff(100, 4) == 25
        assert cxx11.base_cutoff(3, 10) == 1

    def test_base_cutoff_invalid(self):
        with pytest.raises(ValueError):
            cxx11.base_cutoff(100, 0)

    def test_thread_for(self, space):
        r = cxx11.thread_for(space)
        assert r.executor == "threadpool"
        assert r.params["mode"] == "thread"
        assert r.params["persistent"] is False

    def test_async_for(self, space):
        r = cxx11.async_for(space, persistent=True)
        assert r.params["mode"] == "async"
        assert r.params["persistent"] is True

    def test_graphs(self):
        g = TaskGraph()
        g.add(1.0)
        assert cxx11.thread_graph(g).params["mode"] == "thread"
        assert cxx11.async_graph(g).params["mode"] == "async"
