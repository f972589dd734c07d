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

import numpy as np

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


_LEAF, _SPAWN, _CONT = 0, 1, 2
_TAG_NAMES = ("leaf", "spawn", "cont")
_TAG_WORK = np.array([LEAF_WORK, SPAWN_WORK, CONT_WORK])


def graph(n: int) -> TaskGraph:
    """Build the spawn/continuation DAG for ``fib(n)``.

    Task ids follow the recursive elaboration in preorder: a frame is
    its spawn task, then ``fib(k-1)``'s frame, then ``fib(k-2)``'s, then
    its continuation (deps: the two child frames' last tasks).  Frames
    are assembled bottom-up as arrays, so the build needs no recursion.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if task_count(n) > 5_000_000:
        raise ValueError(
            f"fib({n}) elaborates to {task_count(n)} tasks; "
            "simulate a smaller n and scale (see module docstring)"
        )
    tags, dep0, dep1 = _frame(n)
    deps = np.stack((dep0, dep1), axis=1)
    dep_ptr = np.zeros(tags.size + 1, dtype=np.int64)
    np.cumsum((deps >= 0).sum(axis=1), out=dep_ptr[1:])
    return TaskGraph.from_columns(
        f"fib({n})", _TAG_WORK[tags], tag_id=tags, tag_names=_TAG_NAMES,
        dep_ptr=dep_ptr, dep_idx=deps[deps >= 0], critical_path=_critical_path(n),
    )


def _critical_path(n: int) -> float:
    """T_inf of :func:`graph` ``(n)``, bit for bit the forward pass's.

    A frame's first task starts at its parent spawn's finish ``s``, and
    every task's work is fixed by its kind, so a ``fib(k)`` frame that
    starts at ``s`` always ends at the same sum: a leaf at ``s +
    LEAF_WORK``, a spawn frame at the later of its children's ends (both
    start at ``s + SPAWN_WORK``) plus ``CONT_WORK``.  The root frame's
    end is the graph's latest finish.
    """
    ends: dict[tuple[int, float], float] = {}

    def end(k: int, s: float) -> float:
        if k < 2:
            return s + LEAF_WORK
        e = ends.get((k, s))
        if e is None:
            c = s + SPAWN_WORK
            e = ends[k, s] = max(end(k - 1, c), end(k - 2, c)) + CONT_WORK
        return e

    return end(n, 0.0)


def _frame(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``fib(n)``'s frame as ``(tag, dep0, dep1)`` arrays over its tasks
    in id order, ids relative to the frame's first task; ``-1`` marks
    no dep, and the first task's ``dep0`` (its parent's spawn) is -1."""
    leaf = (np.array([_LEAF], dtype=np.int8), np.array([-1]), np.array([-1]))
    prev, cur = leaf, leaf  # frames k-2 and k-1
    for _ in range(2, n + 1):
        (t1, a1, b1), (t2, a2, b2) = cur, prev
        f1, f2 = t1.size, t2.size
        off2 = 1 + f1  # id of the second child's first task
        dep0 = np.concatenate(([-1], a1 + 1, a2 + off2, [f1]))
        dep0[off2] = 0  # both children hang off the spawn task
        dep1 = np.concatenate(([-1], np.where(b1 >= 0, b1 + 1, -1),
                               np.where(b2 >= 0, b2 + off2, -1), [f1 + f2]))
        tags = np.concatenate(([_SPAWN], t1, t2, [_CONT])).astype(np.int8)
        prev, cur = cur, (tags, dep0, dep1)
    return cur


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
