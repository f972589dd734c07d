"""Fibonacci kernel: recursive task parallelism (Fig. 5).

``fib(n)`` spawns ``fib(n-1)`` and ``fib(n-2)`` and adds the results —
the canonical unbalanced spawn tree.  Data-parallel versions "are not
practical" (paper), so only ``omp_task``, ``cilk_spawn`` and the
recursive C++11 version exist.

Each tree node elaborates into a *spawn* task (the part of the frame
that creates the children) and a *continuation* task (the part after
the sync that adds the children's results); leaves are single tasks.
Task count is ``3 * fib(n+1) - 2``, so the paper's n = 40 would be
~300M tasks — benchmarks simulate a smaller n (default 22, ~87k tasks)
and note the scale, which preserves the per-node overhead ratios the
figure is about.

The recursive C++11 version creates one thread per node; at n = 20 the
tree (32836 tasks) exceeds the default thread cap and the execution
raises :class:`~repro.runtime.base.ThreadExplosionError` — the paper's
"when problem size increases to 20 or above, the system hangs".
"""

from __future__ import annotations

import sys
from typing import Callable

from repro.models import charm, cilk, cxx11, hpx, mpi, openmp
from repro.sim.machine import Machine
from repro.sim.task import Program, TaskGraph, TaskRegion

__all__ = [
    "PAPER_N",
    "DEFAULT_SIM_N",
    "task_count",
    "graph",
    "program",
    "reference",
]

PAPER_N = 40
DEFAULT_SIM_N = 22

#: Per-task work split (seconds): the spawning part of a frame, the
#: post-sync continuation, and a base-case leaf.  These fold in the
#: per-frame runtime glue both models pay (stack frame, task descriptor
#: cache misses, result plumbing), calibrated so the per-task total
#: (~0.8 us) yields the paper's ~20% cilk/omp gap once each model's
#: spawn + deque costs are added on top.
SPAWN_WORK = 0.85e-6
CONT_WORK = 0.75e-6
LEAF_WORK = 0.75e-6


def reference(n: int) -> int:
    """The nth Fibonacci number (fib(0)=0, fib(1)=1), fast-doubling."""
    if n < 0:
        raise ValueError("n must be non-negative")
    return _fib_pair(n)[0]


def _fib_pair(k: int) -> tuple[int, int]:
    """(fib(k), fib(k+1)) by fast doubling."""
    if k == 0:
        return (0, 1)
    a, b = _fib_pair(k >> 1)
    c = a * (2 * b - a)
    d = a * a + b * b
    if k & 1:
        return (d, c + d)
    return (c, d)


def task_count(n: int) -> int:
    """Number of tasks the spawn/continuation elaboration produces."""
    if n < 2:
        return 1
    return 3 * reference(n + 1) - 2


def graph(n: int) -> TaskGraph:
    """Build the spawn/continuation DAG for ``fib(n)``."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if task_count(n) > 5_000_000:
        raise ValueError(
            f"fib({n}) elaborates to {task_count(n)} tasks; "
            "simulate a smaller n and scale (see module docstring)"
        )
    g = TaskGraph(f"fib({n})")
    limit = sys.getrecursionlimit()
    if n + 10 > limit:
        sys.setrecursionlimit(n + 50)

    _elaborate(g.add, n, ())
    return g


def _elaborate(add: Callable[..., int], k: int, dep: tuple[int, ...]) -> int:
    """Add ``fib(k)``'s frame below ``dep`` through ``add`` (a bound
    :meth:`TaskGraph.add`) and return the id of its last task.

    A module-level function rather than a closure: a recursive closure
    refers to itself, and that reference cycle would keep the graph
    alive until the cyclic collector runs.
    """
    if k < 2:
        return add(LEAF_WORK, deps=dep, tag="leaf")
    s = add(SPAWN_WORK, deps=dep, tag="spawn")
    c1 = _elaborate(add, k - 1, (s,))
    c2 = _elaborate(add, k - 2, (s,))
    return add(CONT_WORK, deps=(c1, c2), tag="cont")


def program(version: str, *, machine: Machine, n: int = DEFAULT_SIM_N) -> Program:
    """The Fibonacci benchmark in a task-parallel version.

    ``omp_for`` / ``cilk_for`` / ``cxx_thread`` raise ``ValueError`` —
    the paper deems data-parallel fib "not practical".
    """
    builder: Callable[[int], TaskGraph] = lambda _p: graph(n)
    if version == "omp_task":
        region: TaskRegion = openmp.task_graph(builder, name=f"omp-fib({n})")
    elif version == "cilk_spawn":
        region = cilk.spawn_graph(builder, name=f"cilk-fib({n})")
    elif version == "cxx_async":
        region = cxx11.async_graph(builder, name=f"cxx-fib({n})")
    elif version == "cxx_thread":
        region = cxx11.thread_graph(builder, name=f"cxx-fib({n})")
    elif version == "charm":
        region = charm.chare_graph(builder, name=f"charm-fib({n})")
    elif version == "hpx":
        region = hpx.future_graph(builder, name=f"hpx-fib({n})")
    elif version == "mpi":
        region = mpi.rank_graph(builder, name=f"mpi-fib({n})")
    else:
        raise ValueError(
            f"fib has no {version!r} version (data parallelism is not practical here)"
        )
    prog = Program(f"fib({n})", meta={"version": version, "kernel": "fib", "n": n})
    return prog.add(region)


from repro.kernels import common  # placed late to avoid import cycle

common._register("fib", sys.modules[__name__])
