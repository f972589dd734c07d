"""Tier-1 equivalence properties: the fast paths must be bit-identical.

Tier 1 replaces scalar hot loops with vectorized/batched equivalents —
the engine's branch-hoisted drain, the memoized duration model, the
batched ``cilk_for`` graph builder.  "Equivalent" here means **bit
identical**: same final time, same per-worker statistics, same executor
meta, same complete trace event stream, down to the last ULP of every
timestamp.  These properties pin that on seeded random programs (every
executor, nested regions, skewed spaces), under fault injection, and on
the batched builders directly.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.runtime.base import ExecContext
from repro.runtime.run import run_program
from repro.runtime.workstealing import cilk_for_graph, cilk_for_graph_batched
from repro.sim.task import IterSpace
from repro.sweep.codec import result_to_dict
from repro.validate.properties import SMALL_MACHINE, random_program

CTX2 = ExecContext(machine=SMALL_MACHINE)
CTX1 = CTX2.with_fidelity(1)

THREADS = (1, 2, 5, 9)
SEEDS = (0, 1, 2, 3, 4, 5, 6, 7)


def _identical(program, p, **kwargs) -> None:
    ref = run_program(program, p, CTX2, trace=True, **kwargs)
    fast = run_program(program, p, CTX1, trace=True, **kwargs)
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


def test_fidelity0_context_runs_like_fidelity1():
    """Executors treat a fidelity-0 context as tier 1 (estimates come
    from ``estimate_program``, never from ``run_program``)."""
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
    for kwargs in ({}, {"bytes_penalty": 1.5, "work_scale": 0.9}):
        g_ref = cilk_for_graph(space, grainsize, CTX2, **kwargs)
        g_fast = cilk_for_graph_batched(space, grainsize, CTX2, **kwargs)
        assert len(g_fast) == len(g_ref)
        for a, b in zip(g_fast.tasks, g_ref.tasks):
            # dataclass equality: work/membytes bit-equal floats, same
            # deps tuple (task ids), same split/chunk tag
            assert a == b
        assert g_fast.successors == g_ref.successors


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


# ---------------------------------------------------------------------------
# the memoized duration fast path
# ---------------------------------------------------------------------------
def test_fast_duration_bit_equal_to_memory_model():
    from repro.runtime.workstealing import StealingScheduler
    from repro.sim.task import TaskGraph

    g = TaskGraph()
    g.add(1e-8)
    sched = StealingScheduler(g, 9, CTX1)
    rng = np.random.default_rng(13)
    for _ in range(500):
        work = float(rng.uniform(0, 1e-6))
        membytes = float(rng.choice([0.0, 8.0, 64.0, 4096.0]))
        locality = float(rng.choice([0.1, 0.5, 1.0]))
        active = int(rng.integers(0, 10))
        assert sched._duration(work, membytes, locality, active) == CTX1.duration(
            work, membytes, locality, active
        )


def test_reference_context_uses_reference_duration():
    from repro.runtime.workstealing import StealingScheduler
    from repro.sim.task import TaskGraph

    g = TaskGraph()
    g.add(1e-8)
    sched = StealingScheduler(g, 4, CTX2)
    assert sched._duration == CTX2.memory.duration


# ---------------------------------------------------------------------------
# the engine fast drain
# ---------------------------------------------------------------------------
def test_engine_fast_drain_matches_general_loop():
    from repro.sim.engine import Engine

    def build(engine):
        order = []
        for i, t in enumerate([5e-6, 1e-6, 1e-6, 3e-6]):
            engine.at(t, lambda i=i: order.append((engine.now, i)))
        return order

    fast = Engine()
    fast_order = build(fast)
    fast_end = fast.run()

    slow = Engine()
    slow.enable_audit()  # tracer attached -> general loop
    slow_order = build(slow)
    slow_end = slow.run()

    assert fast_order == slow_order
    assert fast_end == slow_end
    assert fast.events_processed == slow.events_processed == 4


def test_engine_fast_drain_honours_max_events():
    from repro.sim.engine import Engine

    eng = Engine()

    def reschedule():
        eng.after(1e-6, reschedule)

    eng.after(1e-6, reschedule)
    with pytest.raises(RuntimeError, match="exceeded"):
        eng.run(max_events=100)


def test_engine_fast_drain_honours_interrupt():
    from repro.sim.engine import Engine

    eng = Engine()
    seen = []
    eng.at(1e-6, lambda: (seen.append("a"), eng.interrupt("stop")))
    eng.at(2e-6, lambda: seen.append("b"))
    eng.run()
    assert seen == ["a"]
    assert eng.interrupted == "stop"
    assert eng.pending == 1
