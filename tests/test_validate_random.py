"""Randomized (seeded, dependency-free) property tests for the deque
protocols and the work-stealing scheduler, checked against a reference
model and the trace invariant checker."""

import random
from collections import deque as pydeque

import pytest

from repro.obs.tracer import Tracer
from repro.runtime.base import ExecContext
from repro.runtime.workstealing import run_stealing_graph, run_stealing_loop
from repro.sim.costs import CostModel
from repro.sim.deque import make_deque
from repro.validate.invariants import (
    check_event_times,
    check_lock_log,
    check_region,
    check_trace,
)
from repro.validate.properties import random_graph, random_space

COSTS = CostModel()
CTX = ExecContext()


def audit(res, tracer, where):
    """Stats invariants plus the tracer's intervals, lock grants, engine
    events and per-worker busy seconds; one engine ran outside a program,
    so its region-local ties must also keep insertion order."""
    rep = check_region(res, ctx=CTX, where=where)
    check_trace(tracer, [res], report=rep, where=where)
    check_event_times(tracer.engine_events, report=rep, where=where)
    busy = [0.0] * len(res.workers)
    for w, start, end, _tag in tracer.intervals():
        busy[w] += end - start
    for w, got in zip(res.workers, busy):
        assert got == pytest.approx(w.busy, rel=1e-9, abs=1e-15)
    return rep


@pytest.mark.parametrize("kind", ["the", "locked"])
@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
class TestDequeAgainstReferenceModel:
    """Drive a deque with a random op sequence and mirror it with a plain
    ``collections.deque``: owner ops at the tail, steals at the head."""

    def test_matches_reference_and_audits_clean(self, kind, seed):
        rng = random.Random(1000 * seed + (kind == "locked"))
        tracer = Tracer()
        dq = make_deque(kind, owner=0, costs=COSTS, tracer=tracer)
        ref: pydeque[int] = pydeque()
        t = 0.0
        next_tid = 0
        for _ in range(400):
            t += rng.random() * 1e-7
            op = rng.choice(["push", "push", "pop", "steal"])
            if op == "push":
                t2 = dq.push(t, next_tid)
                ref.append(next_tid)
                next_tid += 1
            elif op == "pop":
                tid, t2 = dq.pop(t)
                expect = ref.pop() if ref else None
                assert tid == expect
            else:
                tid, t2 = dq.steal(t)
                expect = ref.popleft() if ref else None
                assert tid == expect
            assert t2 >= t  # operations never finish before they start
            t = t2
            assert list(dq.items) == list(ref)

        assert dq.pushes == next_tid
        assert dq.pops + dq.steals == next_tid - len(ref)
        # lock grant invariants: causality + mutual exclusion of holds
        log = tracer.lock_events.get(dq.lock.name, [])
        rep = check_lock_log(log, where=f"{kind} seed={seed}")
        assert rep.ok, rep.describe()
        if kind == "locked":
            assert len(log) == dq.pushes + dq.pops + dq.steals
        else:
            assert len(log) == dq.steals  # owner ops are lock-free


class TestRandomizedScheduler:
    """Random DAGs / loops through the stealing scheduler, audited."""

    @pytest.mark.parametrize("seed", range(8))
    def test_random_graph_runs_are_invariant_clean(self, seed):
        rng = random.Random(seed)
        graph = random_graph(rng, max_tasks=80)
        deque_kind = rng.choice(["the", "locked"])
        p = rng.choice([1, 2, 3, 5, 8])
        tracer = Tracer()
        res = run_stealing_graph(
            graph,
            p,
            CTX,
            deque=deque_kind,
            work_first=rng.random() < 0.5,
            tracer=tracer,
        )
        rep = audit(res, tracer, f"rand-graph seed={seed}")
        assert rep.ok, rep.describe()
        tasks_run = sum(w.tasks for w in res.workers)
        assert tasks_run == len(graph)  # every task exactly once

    @pytest.mark.parametrize("seed", range(4))
    def test_random_loop_runs_are_invariant_clean(self, seed):
        rng = random.Random(100 + seed)
        space = random_space(rng)
        tracer = Tracer()
        res = run_stealing_loop(
            space,
            rng.choice([1, 2, 4, 7]),
            CTX,
            style=rng.choice(["cilk_for", "flat"]),
            deque=rng.choice(["the", "locked"]),
            tracer=tracer,
        )
        rep = audit(res, tracer, f"rand-loop seed={seed}")
        assert rep.ok, rep.describe()

    def test_central_queue_is_audited_too(self):
        rng = random.Random(77)
        graph = random_graph(rng, max_tasks=50)
        tracer = Tracer()
        res = run_stealing_graph(
            graph, 4, CTX, deque="locked", central_queue=True, tracer=tracer
        )
        rep = audit(res, tracer, "central-queue")
        assert rep.ok, rep.describe()
        # all deque traffic went through worker 0's lock
        assert list(tracer.lock_events) == ["locked[0]"]
