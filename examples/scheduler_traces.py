#!/usr/bin/env python
"""Scheduler traces: watch the runtimes do what the paper says they do.

Renders ASCII Gantt charts of three executions on 8 simulated workers:

1. cilk_for's splitter tree — the ramp-up where "workstealing
   operations serialize the distributions of loop chunks";
2. an omp-task flat chunk set — the master spawns, thieves drain;
3. the fib spawn tree on THE vs. locked deques — where the lock-based
   deque's contention (the paper's fib explanation) shows up as longer
   gaps between tasks.

Usage:  python examples/scheduler_traces.py
"""

from repro import ExecContext
from repro.kernels import fib
from repro.obs.tracer import Tracer
from repro.runtime.workstealing import (
    StealingScheduler,
    cilk_for_graph,
    flat_chunk_graph,
)
from repro.sim.task import IterSpace
from repro.sim.trace import render_gantt

P = 8


def show(title: str, sched: StealingScheduler) -> None:
    res = sched.run()
    print("=" * 78)
    print(f"{title}  (t={res.time * 1e3:.3f} ms, steals={res.meta['steals']}, "
          f"lock wait={res.meta['lock_wait'] * 1e6:.1f} us)")
    print(render_gantt(sched.tracer.intervals(), P, width=70))
    print()


def main() -> None:
    ctx = ExecContext()
    space = IterSpace.uniform(20_000, 10e-9, 8.0, name="loop")

    g = cilk_for_graph(space, 500, ctx)
    show("cilk_for splitter tree (s=split, c=chunk)",
         StealingScheduler(g, P, ctx, deque="the", tracer=Tracer()))

    g = flat_chunk_graph(space, 4 * P, ctx)
    show("omp task flat chunks, master-spawned",
         StealingScheduler(g, P, ctx, deque="locked", tracer=Tracer()))

    for deque in ("the", "locked"):
        g = fib.graph(14)
        show(f"fib(14) spawn tree on {deque!r} deques",
             StealingScheduler(g, P, ctx, deque=deque, tracer=Tracer()))


if __name__ == "__main__":
    main()
