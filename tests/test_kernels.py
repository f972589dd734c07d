"""Tests for the benchmark kernels (builders + numpy references)."""

import numpy as np
import pytest

from repro.kernels import KERNELS, axpy, build_kernel_program, fib, matmul, matvec, sumreduce
from repro.kernels.common import dispatch_loop, kernel_module, op_seconds
from repro.models import VERSIONS
from repro.sim.machine import PAPER_MACHINE
from repro.sim.task import IterSpace, TaskGraph


class TestCommon:
    def test_op_seconds(self):
        t = op_seconds(PAPER_MACHINE, 2.3e9 * 8)  # ipc=8 -> one second
        assert t == pytest.approx(1.0)

    def test_op_seconds_validation(self):
        with pytest.raises(ValueError):
            op_seconds(PAPER_MACHINE, -1)
        with pytest.raises(ValueError):
            op_seconds(PAPER_MACHINE, 1, ipc=0)

    def test_registry_contains_all_kernels(self):
        assert set(KERNELS) == {"axpy", "sum", "matvec", "matmul", "fib"}

    def test_kernel_module_lookup(self):
        assert kernel_module("axpy") is axpy
        with pytest.raises(KeyError):
            kernel_module("nope")

    def test_dispatch_loop_all_versions(self):
        space = IterSpace.uniform(100, 1e-7)
        for v in VERSIONS:
            region = dispatch_loop(v, space)
            assert region is not None

    def test_dispatch_loop_unknown_version(self):
        with pytest.raises(ValueError):
            dispatch_loop("tbb_for", IterSpace.uniform(10, 1e-7))


class TestAxpy:
    def test_space_totals(self):
        s = axpy.space(PAPER_MACHINE, 1000)
        assert s.niter == 1000
        assert s.total_bytes == pytest.approx(24 * 1000)

    def test_program_meta(self):
        prog = axpy.program("omp_for", machine=PAPER_MACHINE, n=100)
        assert prog.meta["kernel"] == "axpy"
        assert prog.meta["version"] == "omp_for"
        assert len(prog) == 1

    def test_reference(self):
        x = np.array([1.0, 2.0])
        y = np.array([3.0, 4.0])
        out = axpy.reference(2.0, x, y)
        assert np.allclose(out, [5.0, 8.0])
        assert np.allclose(y, [3.0, 4.0]), "reference must not mutate"

    def test_reference_shape_check(self):
        with pytest.raises(ValueError):
            axpy.reference(1.0, np.ones(3), np.ones(4))


class TestSum:
    def test_all_versions_reduce(self):
        for v in VERSIONS:
            prog = sumreduce.program(v, machine=PAPER_MACHINE, n=100)
            assert len(prog) == 1

    def test_reference(self):
        x = np.arange(10.0)
        assert sumreduce.reference(2.0, x) == pytest.approx(90.0)


class TestMatvecMatmul:
    def test_matvec_space_scales_quadratically(self):
        s1 = matvec.space(PAPER_MACHINE, 100)
        s2 = matvec.space(PAPER_MACHINE, 200)
        assert s2.total_work == pytest.approx(4 * s1.total_work, rel=1e-6)

    def test_matvec_reference(self):
        m = np.arange(6.0).reshape(2, 3)
        v = np.ones(3)
        assert np.allclose(matvec.reference(m, v), m @ v)

    def test_matvec_reference_shape_check(self):
        with pytest.raises(ValueError):
            matvec.reference(np.ones((2, 3)), np.ones(4))

    def test_matmul_compute_bound(self):
        s = matmul.space(PAPER_MACHINE, 2048)
        w, b = s.chunk_cost(0, 1)
        bw = PAPER_MACHINE.bandwidth_per_thread(1)
        assert w > b / bw, "matmul rows must be compute bound"

    def test_matmul_reference(self):
        a = np.arange(6.0).reshape(2, 3)
        b = np.arange(12.0).reshape(3, 4)
        assert np.allclose(matmul.reference(a, b), a @ b)

    def test_matmul_reference_shape_check(self):
        with pytest.raises(ValueError):
            matmul.reference(np.ones((2, 3)), np.ones((4, 2)))


def _elaborate(add, k, dep):
    """The recursive spawn/continuation elaboration ``fib.graph`` once
    ran: add ``fib(k)``'s frame below ``dep`` through ``add`` and return
    the id of its last task."""
    if k < 2:
        return add(fib.LEAF_WORK, deps=dep, tag="leaf")
    s = add(fib.SPAWN_WORK, deps=dep, tag="spawn")
    c1 = _elaborate(add, k - 1, (s,))
    c2 = _elaborate(add, k - 2, (s,))
    return add(fib.CONT_WORK, deps=(c1, c2), tag="cont")


def reference_fib_graph(n):
    g = TaskGraph(f"fib({n})")
    _elaborate(g.add, n, ())
    return g


class TestFib:
    @pytest.mark.parametrize("n", range(19))
    def test_graph_equals_recursive_reference(self, n):
        g, ref = fib.graph(n), reference_fib_graph(n)
        assert g.name == ref.name
        assert list(g.tasks) == list(ref.tasks)
        assert g.successors == ref.successors
        assert {type(w) for w in g.work} == {float}

    def test_reference_values(self):
        assert [fib.reference(i) for i in range(8)] == [0, 1, 1, 2, 3, 5, 8, 13]
        assert fib.reference(40) == 102_334_155

    def test_reference_rejects_negative(self):
        with pytest.raises(ValueError):
            fib.reference(-1)

    def test_task_count_formula(self):
        assert fib.task_count(0) == 1
        assert fib.task_count(1) == 1
        assert fib.task_count(2) == 4
        assert fib.task_count(5) == 3 * fib.reference(6) - 2

    def test_graph_matches_task_count(self):
        for n in (0, 1, 2, 5, 10):
            assert len(fib.graph(n)) == fib.task_count(n)

    def test_graph_structure(self):
        g = fib.graph(3)
        g.validate()
        tags = {t.tag for t in g.tasks}
        assert tags == {"spawn", "cont", "leaf"}
        # exactly one final continuation with no successors
        sinks = [t.tid for t in g.tasks if not g.successors[t.tid]]
        assert len(sinks) == 1

    def test_graph_size_guard(self):
        with pytest.raises(ValueError, match="tasks"):
            fib.graph(40)

    def test_program_versions(self):
        for v in ("omp_task", "cilk_spawn", "cxx_async", "cxx_thread"):
            prog = fib.program(v, machine=PAPER_MACHINE, n=10)
            assert prog.meta["kernel"] == "fib"

    def test_program_rejects_data_parallel(self):
        with pytest.raises(ValueError, match="not practical"):
            fib.program("omp_for", machine=PAPER_MACHINE, n=10)

    def test_build_kernel_program_registry(self):
        prog = build_kernel_program("fib", "cilk_spawn", PAPER_MACHINE, n=8)
        assert prog.meta["n"] == 8
