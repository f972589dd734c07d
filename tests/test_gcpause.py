"""The cyclic-collector pause around simulations, and the reference
cycles it would otherwise leave holding task graphs.

``run_program`` and ``estimate_program`` run with Python's cyclic
garbage collector paused (:mod:`repro.perf.gcpause`).  These tests pin
the pause's bookkeeping (restored after an exception, a caller's own
``gc.disable()`` respected, overlapping threads counted) and check that
no task graph outlives its region through a reference cycle.
"""

import gc
import os
import sys
import threading
import weakref

import pytest

import repro.runtime.run as run_mod
import repro.sim.tiers as tiers_mod
from repro.core.registry import get_workload
from repro.kernels import fib
from repro.perf.gcpause import paused_gc
from repro.runtime.base import ExecContext, ThreadExplosionError
from repro.runtime.run import run_program
from repro.sim.task import TaskGraph
from repro.sim.tiers import estimate_program


@pytest.fixture
def collector_enabled():
    """Start each test with the collector on, and leave it on."""
    was = gc.isenabled()
    gc.enable()
    try:
        yield
    finally:
        if was:
            gc.enable()
        else:
            gc.disable()


def spy_on(monkeypatch, module, name, seen, hook=None):
    """Wrap ``module.name`` to record the collector state at each call."""
    original = getattr(module, name)

    def spy(*args, **kwargs):
        seen.append(gc.isenabled())
        if hook is not None:
            hook()
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)


def small_program(version="omp_for"):
    return get_workload("axpy").build(version, ExecContext().machine)


class TestPause:
    def test_collector_paused_inside_and_restored_after(
        self, monkeypatch, collector_enabled
    ):
        seen = []
        spy_on(monkeypatch, run_mod, "execute_region", seen)
        spy_on(monkeypatch, tiers_mod, "estimate_region", seen)
        ctx = ExecContext()
        run_program(small_program(), 4, ctx)
        estimate_program(small_program(), 4, ctx.with_fidelity(0))
        assert seen and not any(seen)
        assert gc.isenabled()

    def test_restored_after_a_program_raises(self, collector_enabled):
        ctx = ExecContext()
        program = fib.program("cxx_thread", machine=ctx.machine, n=20)
        with pytest.raises(ThreadExplosionError):
            run_program(program, 4, ctx)
        assert gc.isenabled()
        with pytest.raises(ThreadExplosionError):
            estimate_program(program, 4, ctx.with_fidelity(0))
        assert gc.isenabled()

    def test_caller_disabled_collector_stays_disabled(self, collector_enabled):
        gc.disable()
        run_program(small_program(), 4, ExecContext())
        assert not gc.isenabled()
        with paused_gc:
            assert not gc.isenabled()
        assert not gc.isenabled()

    def test_nested_pauses_restore_once(self, collector_enabled):
        with paused_gc:
            with paused_gc:
                assert not gc.isenabled()
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_held_back_collection_runs_when_the_pause_ends(self, collector_enabled):
        limit0 = gc.get_threshold()[0]
        gc.collect()
        survivors = []
        with paused_gc:
            survivors.extend([] for _ in range(3 * limit0))
            assert gc.get_count()[0] > limit0
        # collected on the way out, not at the caller's next allocation
        assert gc.get_count()[0] < limit0
        assert len(survivors) == 3 * limit0

    def test_no_collection_when_the_caller_disabled_it(self, collector_enabled):
        limit0 = gc.get_threshold()[0]
        gc.collect()
        gc.disable()
        survivors = []
        with paused_gc:
            survivors.extend([] for _ in range(3 * limit0))
        assert gc.get_count()[0] > limit0
        assert not gc.isenabled()

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_starts_unpaused(self, collector_enabled):
        with paused_gc:
            pid = os.fork()
            if pid == 0:  # child: report the collector state and leave
                os._exit(0 if gc.isenabled() else 1)
            _, status = os.waitpid(pid, 0)
            assert not gc.isenabled()
        assert os.waitstatus_to_exitcode(status) == 0
        assert gc.isenabled()

    def test_overlapping_threads_leave_collector_enabled(
        self, monkeypatch, collector_enabled
    ):
        # both threads are inside run_program before either leaves; the
        # first to leave must not re-enable the collector under the other
        inside = threading.Barrier(2, timeout=30)
        first_done = threading.Event()
        seen = []
        spy_on(monkeypatch, run_mod, "execute_region", seen, hook=inside.wait)
        states = {}

        def first():
            run_program(small_program(), 2, ExecContext())
            states["after_first"] = gc.isenabled()
            first_done.set()

        def second():
            # stays inside its pause until the first thread has left
            with paused_gc:
                run_program(small_program(), 2, ExecContext())
                assert first_done.wait(timeout=30)

        threads = [threading.Thread(target=first), threading.Thread(target=second)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        assert states == {"after_first": False}
        assert seen == [False, False]
        assert gc.isenabled()


    def test_many_threads_stress(self, collector_enabled):
        # a lost update on the pause count would leave the collector
        # disabled (count stuck above zero) or enable it under a thread
        # that is still inside its pause
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        errors = []

        def worker():
            for _ in range(20_000):
                with paused_gc:
                    if gc.isenabled():
                        errors.append("collector enabled inside a pause")

        try:
            threads = [threading.Thread(target=worker) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(switch)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert gc.isenabled()


# ---------------------------------------------------------------------------
# no reference cycle keeps a region's graph alive
# ---------------------------------------------------------------------------
@pytest.fixture
def graph_refs(monkeypatch):
    """Weak references to every TaskGraph constructed during the test."""
    refs = []
    original = TaskGraph.__init__

    def init(self, *args, **kwargs):
        original(self, *args, **kwargs)
        refs.append(weakref.ref(self))

    monkeypatch.setattr(TaskGraph, "__init__", init)
    return refs


@pytest.mark.parametrize("workload,version,p,params", [
    ("lud", "omp_task", 16, {}),
    ("bfs", "cilk_for", 8, {}),
    ("fib", "cilk_spawn", 8, {"n": 12}),
    ("fib", "hpx", 8, {"n": 12}),
    ("taskbench", "mpi", 4, {}),
])
def test_graphs_die_with_their_region(
    graph_refs, collector_enabled, workload, version, p, params
):
    ctx = ExecContext()
    program = get_workload(workload).build(version, ctx.machine, **params)
    gc.disable()
    try:
        run_program(program, p, ctx, version)
        del program
        alive = [r() for r in graph_refs if r() is not None]
    finally:
        gc.enable()
    assert graph_refs
    assert alive == []


@pytest.mark.parametrize("version", ["cilk_for", "omp_task"])
def test_a_stealing_loop_leaves_no_cyclic_garbage(collector_enabled, version):
    """A stealing-loop cell allocates no reference cycle (sizing the
    splitter tree with a recursive closure made one per graph), so a
    paused collector has nothing to hold back."""
    ctx = ExecContext()
    program = get_workload("axpy").build(version, ctx.machine)
    gc.collect()
    gc.disable()
    try:
        run_program(program, 4, ctx, version)
        estimate_program(program, 4, ctx, version)
        garbage = gc.collect()
    finally:
        gc.enable()
    assert garbage == 0
