"""The composability problem (paper section III.B).

"Achieving load balancing across cores when there are more tasks than
the number of cores is known as composability problem.  In Cilk Plus,
the composition problem has been addressed through the workstealing
runtime.  In OpenMP, the parallelism of a parallel region is mandatory
and static, i.e., system must run parallel regions in parallel, so it
suffers from the composability problem when there is oversubscription."

The classic trigger: a parallel driver loop over ``p`` items, each item
calling a parallel library routine — with nested parallelism enabled,
``p`` concurrent teams of ``p`` threads each (``p^2`` software threads
on 36 cores).

Mechanisms modelled:

- throughput: the machine's oversubscription regime (time-slicing
  efficiency loss) — mild;
- **descheduled barriers** — the real killer: an OpenMP parallel region
  *must* end in a barrier among its team, and when the team's threads
  are time-sliced against ``p^2`` others, the last thread to arrive has
  to be scheduled back in, costing OS-quantum time rather than
  microseconds.  Charged per inner region once software threads exceed
  hardware contexts;
- Cilk's alternative: nested ``cilk_for`` spawns tasks into the *same*
  ``p`` workers — no extra threads, no mandatory barriers, "composition
  ... addressed through the workstealing runtime".

Strategies compared: ``omp_nested`` (OMP_NESTED=true), ``omp_serialized``
(nested disabled — inner parallelism discarded, the common mitigation)
and ``cilk`` (composed spawns).
"""

from __future__ import annotations

from typing import Optional

from repro.runtime.base import ExecContext
from repro.runtime.worksharing import run_worksharing_loop
from repro.runtime.workstealing import run_stealing_loop
from repro.sim.task import IterSpace

__all__ = ["OS_QUANTUM", "nested_times", "composability_study", "render_composability"]

#: OS scheduling quantum charged to a barrier whose team is descheduled
#: (Linux CFS scheduling latency scale).
OS_QUANTUM = 2e-3


def nested_times(
    ctx: ExecContext,
    nthreads: int,
    *,
    outer: Optional[int] = None,
    inner_n: int = 200_000,
    work_per_iter: float = 5e-9,
) -> dict[str, float]:
    """Simulated time of ``outer`` concurrent inner parallel loops.

    ``outer`` defaults to ``nthreads`` (the driver-loop pattern).
    Returns {"omp_nested", "omp_serialized", "cilk"} -> seconds.
    """
    outer = outer if outer is not None else nthreads
    if outer <= 0:
        raise ValueError("outer must be positive")
    machine = ctx.machine
    costs = ctx.costs
    space = IterSpace.uniform(inner_n, work_per_iter, 0.0, name="inner-loop")

    # --- OpenMP, nested enabled ----------------------------------------
    concurrent = min(outer, nthreads)
    oversub = concurrent * nthreads
    slowdown = machine.compute_speed(nthreads) / machine.compute_speed(oversub)
    rounds = -(-outer // concurrent)
    # time-sliced threads retire each iteration ``slowdown`` times slower
    sliced = IterSpace.uniform(inner_n, work_per_iter * slowdown, 0.0, name="inner-loop")
    inner = run_worksharing_loop(sliced, nthreads, ctx, barrier=False)
    if oversub > machine.hw_threads:
        # the inner region's mandatory barrier waits for descheduled
        # teammates: OS-quantum scale, growing with the oversubscription
        barrier = OS_QUANTUM * (oversub / machine.hw_threads - 1.0)
    else:
        barrier = costs.barrier_cost(nthreads)
    omp_nested = costs.fork_cost(nthreads) + rounds * (inner.time + barrier)

    # --- OpenMP, nested disabled (inner loops serialize) ----------------
    rounds_ser = -(-outer // nthreads)
    omp_serialized = (
        costs.fork_cost(nthreads)
        + rounds_ser * space.total_work
        + costs.barrier_cost(nthreads)
    )

    # --- Cilk Plus: composed spawns, same worker pool -------------------
    composed = IterSpace.uniform(outer * inner_n, work_per_iter, 0.0, name="composed")
    cilk = run_stealing_loop(composed, nthreads, ctx, style="cilk_for", deque="the")
    return {
        "omp_nested": omp_nested,
        "omp_serialized": omp_serialized,
        "cilk": cilk.time,
    }


def composability_study(
    ctx: Optional[ExecContext] = None,
    *,
    threads: tuple[int, ...] = (4, 8, 16, 36),
    inner_n: int = 200_000,
) -> dict[str, list[float]]:
    """Driver-loop nested parallelism across thread counts."""
    ctx = ctx or ExecContext()
    out: dict[str, list[float]] = {"omp_nested": [], "omp_serialized": [], "cilk": []}
    for p in threads:
        times = nested_times(ctx, p, inner_n=inner_n)
        for k, v in times.items():
            out[k].append(v)
    return out


def render_composability(
    results: dict[str, list[float]], threads: tuple[int, ...]
) -> str:
    lines = [
        "nested parallelism: p concurrent inner loops on p threads (p^2 software threads)"
    ]
    lines.append(f"{'strategy':<16}" + "".join(f"{'p=' + str(p):>11}" for p in threads))
    for name, times in results.items():
        cells = "".join(f"{t * 1e3:9.2f}ms" for t in times)
        lines.append(f"{name:<16}{cells}")
    return "\n".join(lines)
