"""Fast-path equivalence properties: the fast paths must be bit-identical.

The simulator replaces scalar hot loops with vectorized/batched
equivalents — the engine's branch-hoisted drain, the memoized duration
model, the batched ``cilk_for`` graph builder.  "Equivalent" here means
**bit identical** to the scalar reference each one replicates
(:func:`scalar_reference`): same final time, same per-worker
statistics, same executor meta, same complete trace event stream, down
to the last ULP of every timestamp.  These properties pin that on
seeded random programs (every executor, nested regions, skewed spaces),
under fault injection, and on the batched builders directly.
"""

from __future__ import annotations

import contextlib
import random

import numpy as np
import pytest

from repro.runtime import workstealing
from repro.runtime.base import ExecContext
from repro.runtime.run import run_program
from repro.runtime.workstealing import cilk_for_graph, cilk_for_graph_batched, flat_chunk_graph
from repro.sim.machine import PAPER_MACHINE
from repro.sim.memory import MemoryModel
from repro.sim.task import IterSpace, TaskGraph
from repro.sweep.codec import result_to_dict
from repro.validate.properties import SMALL_MACHINE, random_program

CTX2 = ExecContext(machine=SMALL_MACHINE)

THREADS = (1, 2, 5, 9)
SEEDS = (0, 1, 2, 3, 4, 5, 6, 7)


@contextlib.contextmanager
def scalar_reference():
    """Run the executors on the scalar reference paths:
    :meth:`MemoryModel.duration` per task instead of the memoized
    duration (work stealing, thread-per-task and AMT graphs), and the
    recursive :func:`cilk_for_graph` builder instead of the batched
    one."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(MemoryModel, "memoized", lambda self, max_active: self.duration)
        mp.setattr(workstealing, "cilk_for_graph_batched", cilk_for_graph)
        yield


def _identical(program, p, **kwargs) -> None:
    with scalar_reference():
        ref = run_program(program, p, CTX2, trace=True, **kwargs)
    fast = run_program(program, p, CTX2, trace=True, **kwargs)
    assert type(fast.time) is float and fast.time == ref.time
    # full-fidelity comparison: regions, worker stats, meta, every
    # span/instant/engine/lock event — the codec dict covers it all
    assert result_to_dict(fast) == result_to_dict(ref)


@pytest.mark.parametrize("seed", SEEDS)
def test_random_programs_bit_identical_across_tiers(seed):
    rng = random.Random(seed)
    program = random_program(rng, seed)
    for p in THREADS:
        _identical(program, p)


@pytest.mark.parametrize("seed", [10, 11, 12])
def test_random_programs_identical_under_fault_injection(seed):
    rng = random.Random(seed)
    program = random_program(rng, seed)
    policy = {"max_retries": 1, "backoff": 1e-6, "on_failure": "continue"}
    for p in (1, 5):
        _identical(program, p, faults="fail:task=3", policy=policy)


def test_fidelity0_context_runs_like_fidelity2():
    """Executors do not read the fidelity (estimates come from
    ``estimate_program``, never from ``run_program``)."""
    rng = random.Random(99)
    program = random_program(rng, 99)
    r0 = run_program(program, 5, CTX2.with_fidelity(0), trace=True)
    r2 = run_program(program, 5, CTX2, trace=True)
    assert result_to_dict(r0) == result_to_dict(r2)


# ---------------------------------------------------------------------------
# the batched cilk_for graph builder, compared structurally
# ---------------------------------------------------------------------------
def _skewed(niter: int) -> IterSpace:
    rng = np.random.default_rng(7)
    work = rng.uniform(1e-9, 2e-7, niter)
    mbytes = rng.choice([0.0, 24.0, 64.0], niter)
    return IterSpace.from_profile(work, mbytes, locality=0.7, name="skew")


@pytest.mark.parametrize("niter,grainsize", [
    (1, 1), (2, 1), (7, 1), (64, 8), (1000, 13), (4096, 64), (5000, 1024),
])
def test_batched_cilk_graph_equals_scalar(niter, grainsize):
    space = _skewed(niter)
    for kwargs in ({}, {"bytes_penalty": 1.5}):
        g_ref = cilk_for_graph(space, grainsize, CTX2, **kwargs)
        g_fast = cilk_for_graph_batched(space, grainsize, CTX2, **kwargs)
        assert len(g_fast) == len(g_ref)
        for a, b in zip(g_fast.tasks, g_ref.tasks):
            # dataclass equality: work/membytes bit-equal floats, same
            # deps tuple (task ids), same split/chunk tag
            assert a == b
        assert g_fast.successors == g_ref.successors
        # the builder's T_inf against the scalar graph's forward pass
        assert g_fast.critical_path() == g_ref.critical_path()


def test_batched_cilk_graph_uniform_space():
    space = IterSpace.uniform(2048, 3e-8, 48.0, locality=0.5)
    g_ref = cilk_for_graph(space, 100, CTX2)
    g_fast = cilk_for_graph_batched(space, 100, CTX2)
    assert [(t.work, t.membytes, t.deps, t.tag) for t in g_fast.tasks] == [
        (t.work, t.membytes, t.deps, t.tag) for t in g_ref.tasks
    ]


def test_batched_builder_falls_back_past_exactness_guard():
    """niter * nblocks >= 2**53 cannot replicate the scalar op order
    bit-exactly, so the batched builder must delegate to the scalar
    one rather than drift."""
    space = IterSpace(2**51, np.full(16, 1e-3), np.zeros(16))
    assert space.niter * space.nblocks >= 2**53
    g_fast = cilk_for_graph_batched(space, 2**49, CTX2)
    g_ref = cilk_for_graph(space, 2**49, CTX2)
    assert [t for t in g_fast.tasks] == [t for t in g_ref.tasks]


def _leaf_edges_reference(niter: int, grainsize: int) -> np.ndarray:
    """The halving recursion walked with a stack, one leaf at a time."""
    los: list[int] = []
    stack = [(0, niter)]
    while stack:
        lo, hi = stack.pop()
        if hi - lo <= grainsize:
            los.append(lo)
        else:
            mid = (lo + hi) // 2
            stack.append((lo, mid))
            stack.append((mid, hi))
    los.sort()
    los.append(niter)
    return np.asarray(los, dtype=np.float64)


def test_tier0_cilk_leaf_edges_match_the_stack_walk():
    """Tier 0's numpy level sweep finds exactly the leaves of the halving
    recursion: 300 random ranges and grain sizes, plus the two largest
    leaf counts tier 0 walks (about 2**17 leaves) and a tiny range."""
    from repro.sim.tiers import _cilk_leaf_edges

    rng = random.Random(9)
    cases = [(rng.randint(0, 50_000), rng.randint(1, 2_000)) for _ in range(300)]
    for niter, grainsize in cases + [(10**7, 77), (2**20, 8), (3, 1)]:
        edges = _cilk_leaf_edges(niter, grainsize)
        assert edges.dtype == np.float64
        assert np.array_equal(edges, _leaf_edges_reference(niter, grainsize)), (
            niter, grainsize)


def _flat_reference(space: IterSpace, nchunks: int, **kwargs) -> TaskGraph:
    """:func:`flat_chunk_graph` as a per-chunk :meth:`TaskGraph.add`
    loop over :meth:`IterSpace.chunk_cost`."""
    g = TaskGraph(f"flat[{space.name}]")
    n = min(nchunks, space.niter)
    for i in range(n):
        work, membytes = space.chunk_cost(i * space.niter // n, (i + 1) * space.niter // n)
        g.add(work, membytes * kwargs.get("bytes_penalty", 1.0), space.locality, tag="chunk")
    return g


@pytest.mark.parametrize("niter,nchunks", [
    (1, 1), (1, 4), (7, 3), (7, 7), (7, 9), (64, 16), (1000, 72), (5000, 37), (5000, 4999),
])
def test_flat_chunk_graph_equals_add_loop(niter, nchunks):
    """Whole-column flat chunks against the per-chunk loop: every task
    and the critical path bit for bit, also with more chunks than
    iterations."""
    for space in (_skewed(niter), IterSpace.uniform(niter, 3e-8, 48.0, locality=0.5)):
        for kwargs in ({}, {"bytes_penalty": 1.5}):
            g_ref = _flat_reference(space, nchunks, **kwargs)
            g_fast = flat_chunk_graph(space, nchunks, CTX2, **kwargs)
            assert list(g_fast.tasks) == list(g_ref.tasks)
            assert g_fast.name == g_ref.name
            assert g_fast.critical_path() == g_ref.critical_path()


def test_flat_chunk_graph_falls_back_past_exactness_guard():
    space = IterSpace(2**51, np.full(16, 1e-3), np.zeros(16))
    assert list(flat_chunk_graph(space, 5, CTX2).tasks) == list(_flat_reference(space, 5).tasks)


# ---------------------------------------------------------------------------
# the memoized duration fast path
# ---------------------------------------------------------------------------
def test_fast_duration_bit_equal_to_memory_model():
    """The memoized and vectorized forms agree with the scalar
    reference element by element: zero and nonzero bytes, ``active``
    from below 1 to beyond ``hw_threads`` (oversubscription), scalar and
    mixed per-task locality."""
    from repro.runtime.workstealing import StealingScheduler

    g = TaskGraph()
    g.add(1e-8)
    sched = StealingScheduler(g, 9, CTX2)
    rng = np.random.default_rng(13)
    for _ in range(500):
        work = float(rng.uniform(0, 1e-6))
        membytes = float(rng.choice([0.0, 8.0, 64.0, 4096.0]))
        locality = float(rng.choice([0.1, 0.5, 1.0]))
        active = int(rng.integers(0, 10))
        assert sched._duration(work, membytes, locality, active) == CTX2.duration(
            work, membytes, locality, active
        )

    for machine in (SMALL_MACHINE, PAPER_MACHINE):
        mem = MemoryModel(machine)
        n = 400
        work = rng.uniform(0, 1e-6, n)
        membytes = rng.choice([0.0, 8.0, 64.0, 4096.0, 1e7], n)
        locality = rng.choice([0.0, 0.1, 0.5, 1.0], n)
        for active in (0, 1, 3, machine.hw_threads, machine.hw_threads + 1,
                       4 * machine.hw_threads):
            mixed = mem.durations(work, membytes, locality, active)
            scalar_loc = mem.durations(work, membytes, 0.5, active)
            no_bytes = mem.durations(work, np.zeros(n), locality, active)
            for i in range(n):
                ref = mem.duration(float(work[i]), float(membytes[i]),
                                   float(locality[i]), active)
                assert mixed[i] == ref
                assert scalar_loc[i] == mem.duration(
                    float(work[i]), float(membytes[i]), 0.5, active)
                assert no_bytes[i] == mem.duration(float(work[i]), 0.0, 1.0, active)


def test_reference_context_uses_reference_duration():
    """The reference side of :func:`_identical` really is the scalar
    path (otherwise every equivalence property compares a run with
    itself)."""
    from repro.runtime.workstealing import StealingScheduler

    g = TaskGraph()
    g.add(1e-8)
    with scalar_reference():
        assert CTX2.memory.memoized(4) == CTX2.memory.duration
        assert StealingScheduler(g, 4, CTX2)._duration == CTX2.memory.duration
        assert workstealing.cilk_for_graph_batched is cilk_for_graph
    assert CTX2.memory.memoized(4) != CTX2.memory.duration
    assert StealingScheduler(g, 4, CTX2)._duration != CTX2.memory.duration
    assert workstealing.cilk_for_graph_batched is cilk_for_graph_batched


def test_reference_drain_charges_every_task_through_duration():
    """Under :func:`scalar_reference` the work-stealing drain calls
    :meth:`MemoryModel.duration` once per task, and outside it never
    does (the drain inlines the memoized formula), so the properties
    above compare two different paths."""
    from repro.runtime.workstealing import StealingScheduler

    g = TaskGraph()
    for i in range(24):
        g.add(1e-7 * (1 + i % 5), 0.0 if i % 3 == 0 else 4e3 * (1 + i % 7),
              (0.4, 1.0)[i % 2], deps=(i // 2,) if i else ())
    real = MemoryModel.duration
    calls = []

    def counting(self, *args):
        calls.append(args)
        return real(self, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(MemoryModel, "duration", counting)
        fast = StealingScheduler(g, 3, CTX2).run()
        assert calls == []
        with scalar_reference():
            ref = StealingScheduler(g, 3, CTX2).run()
    assert len(calls) == len(g)
    assert ref.time == fast.time
