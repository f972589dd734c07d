"""Ablation: deque protocol (THE vs. lock-based).

The paper attributes the Fib gap to the Intel OpenMP runtime's
lock-based deque.  If that is the mechanism, giving the OpenMP-style
execution a THE deque (and Cilk's cheap spawn) should collapse the gap
— and it does.
"""

from conftest import run_once

from repro.kernels import fib
from repro.runtime.workstealing import run_stealing_graph

N = 20
P = 8


def bench_ablation_deque(benchmark, ctx, save):
    graph = fib.graph(N)

    def measure():
        out = {}
        out["cilk (the)"] = run_stealing_graph(graph, P, ctx, deque="the").time
        out["omp (locked)"] = run_stealing_graph(
            graph, P, ctx, deque="locked", spawn_cost="omp_task_spawn"
        ).time
        # the ablation: OpenMP spawn cost on a THE deque
        out["omp-spawn on THE deque"] = run_stealing_graph(
            graph, P, ctx, deque="the", spawn_cost="omp_task_spawn"
        ).time
        # and Cilk spawn cost on a locked deque
        out["cilk-spawn on locked deque"] = run_stealing_graph(
            graph, P, ctx, deque="locked", spawn_cost="cilk_spawn"
        ).time
        return out

    out = run_once(benchmark, measure)
    full_gap = out["omp (locked)"] / out["cilk (the)"]
    deque_only_gap = out["cilk-spawn on locked deque"] / out["cilk (the)"]
    spawn_only_gap = out["omp-spawn on THE deque"] / out["cilk (the)"]
    save(
        "ablation_deque",
        f"fib({N}) at p={P}: per-configuration times\n"
        + "\n".join(f"  {k:28s} {v * 1e3:8.3f} ms" for k, v in out.items())
        + f"\nfull gap {full_gap:.3f}x = deque term {deque_only_gap:.3f}x"
        + f" x spawn term {spawn_only_gap:.3f}x (approximately)",
    )

    assert full_gap > 1.1
    # each single mechanism explains part of the gap
    assert 1.0 < deque_only_gap < full_gap
    assert 1.0 < spawn_only_gap < full_gap
