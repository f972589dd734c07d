"""Pins the work-stealing counters that the cell digests do not cover.

A region's digest hashes its time, its meta and its summed worker
stats, but not each deque's ``(pushes, pops, steals, max_depth)`` nor
each worker's own :class:`WorkerStats`.  This test
compares both, for every case, against ``goldens/drain_counters.json``
(JSON round-trips floats exactly, so the busy and overhead seconds are
compared bit for bit).

Regenerate only for a change meant to move these counters:
``pytest tests/test_drain_counters.py --update-goldens``.
"""

from __future__ import annotations

import itertools
import json
import pathlib

import numpy as np
import pytest

from repro.faults.plan import FaultPlan
from repro.kernels import fib as fib_kernel
from repro.runtime.base import ExecContext
from repro.runtime.workstealing import StealingScheduler, cilk_for_graph_batched
from repro.sim.task import IterSpace, TaskGraph

GOLDEN = pathlib.Path(__file__).parent / "goldens" / "drain_counters.json"


def _mixed_graph() -> TaskGraph:
    """A layered DAG whose tasks mix zero and non-zero ``membytes`` over
    two ``locality`` values, some compute-bound and some memory-bound:
    the drain's duration takes every branch of the roofline formula."""
    g = TaskGraph("mixed")
    prev: list[int] = []
    for level in range(8):
        cur = []
        for i in range(5 + level % 3):
            k = 7 * level + i
            deps = tuple(prev[(k + j) % len(prev)] for j in range(min(2, len(prev))))
            cur.append(g.add(
                1e-7 * (1 + k % 11),
                0.0 if k % 3 == 0 else 2.5e3 * (1 + k % 13),
                (0.35, 0.9)[k % 2],
                deps=sorted(set(deps)),
                tag="mixed",
            ))
        prev = cur
    return g


def _graph(name: str, ctx: ExecContext):
    if name == "fib10":
        return fib_kernel.graph(10)
    if name == "mixed":
        return _mixed_graph()
    # a cilk_for splitter tree over a skewed loop that moves bytes
    nblocks = 64
    space = IterSpace(
        4096,
        np.linspace(1e-7, 4e-6, nblocks),
        np.linspace(0.0, 6e4, nblocks),
        locality=0.7,
        name="ramp",
    )
    return cilk_for_graph_batched(space, 64, ctx)


#: (graph, deque, work_first, central_queue, nthreads, extra) per case;
#: ``extra`` adds a fault plan, a per-task overhead or a reducer.
CASES = [
    (g, dq, wf, cq, p, "")
    for g, dq, wf, cq, p in itertools.product(
        ("fib10", "cilk_for"), ("the", "locked"), (False, True), (False, True), (1, 3, 8)
    )
] + [
    ("fib10", "the", False, False, 3, "poison"),
    ("fib10", "locked", False, False, 3, "poison"),
    ("fib10", "the", True, False, 8, "stall"),
    ("cilk_for", "the", False, False, 8, "reducer"),
] + [
    ("mixed", dq, False, False, p, "") for dq, p in itertools.product(("the", "locked"), (3, 8))
]


def _case_id(case) -> str:
    g, dq, wf, cq, p, extra = case
    parts = [g, dq, "wf" if wf else "bf", "central" if cq else "own", f"p{p}"]
    return "-".join(parts + ([extra] if extra else []))


def observe(case) -> dict:
    g, dq, wf, cq, p, extra = case
    ctx = ExecContext()
    kwargs = {}
    if extra == "poison":
        kwargs["faults"] = FaultPlan.parse("fail:task=40").for_region("r", 0, mode="poison")
    elif extra == "stall":
        kwargs["faults"] = FaultPlan.parse(
            "stall:worker=1,at=1e-6,duration=2e-6").for_region("r", 0, mode="none")
    elif extra == "reducer":
        ctx = ctx.with_costs(atomic_op=3e-8)
        kwargs.update(reducer=True, per_task_overhead="atomic_op")
    sched = StealingScheduler(_graph(g, ctx), p, ctx, deque=dq, work_first=wf,
                              central_queue=cq, **kwargs)
    res = sched.run()
    return {
        "time": res.time,
        "deques": [[d.pushes, d.pops, d.steals, d.max_depth] for d in sched.deques],
        "workers": [[w.busy, w.overhead, w.tasks, w.steals] for w in res.workers],
    }


@pytest.mark.parametrize("case", CASES, ids=[_case_id(c) for c in CASES])
def test_counters_match_golden(case, update_goldens):
    got = observe(case)
    key = _case_id(case)
    if update_goldens:
        doc = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
        doc[key] = got
        GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
        pytest.skip(f"updated {key}")
    assert got == json.loads(GOLDEN.read_text())[key]


def test_cases_exercise_the_deques():
    """The matrix is not vacuous: steals, deep deques and the faulted
    drain all occur somewhere in it."""
    doc = json.loads(GOLDEN.read_text())
    assert len(doc) == len(CASES)
    rows = [row for entry in doc.values() for row in entry["deques"]]
    assert sum(r[2] for r in rows) > 0
    assert max(r[3] for r in rows) > 4
    assert doc["fib10-the-bf-own-p3-poison"]["workers"] != doc["fib10-the-bf-own-p3"]["workers"]
