"""C++11 front-end: ``std::thread`` and ``std::async`` with manual chunking.

The paper's C++11 versions "use a for loop and manual chunking to
distribute loop iterations among threads and tasks", with a recursive
variant guarded by a cut-off ``BASE = N / nthreads`` "to control task
creation and to avoid oversubscription of tasks over hardware threads".
C++11's runtime does no load balancing: "in thread level parallelism
programmers should take care of load balancing".

Recursive graphs run every task on its own thread; without a cut-off
the thread count explodes and execution is declared hung
(:class:`~repro.runtime.base.ThreadExplosionError`), reproducing the
paper's fib(n >= 20) observation.
"""

from __future__ import annotations

from typing import Callable, Optional, Union

from repro.sim.task import IterSpace, LoopRegion, TaskGraph, TaskRegion

__all__ = ["thread_for", "async_for", "thread_graph", "async_graph", "base_cutoff"]


def base_cutoff(niter: int, nthreads: int) -> int:
    """The paper's cut-off: ``BASE = N / nthreads`` iterations per task."""
    if nthreads <= 0:
        raise ValueError("nthreads must be positive")
    return max(1, niter // nthreads)


def thread_for(
    space: IterSpace,
    *,
    nchunks: Optional[int] = None,
    reduction: bool = False,
    persistent: bool = False,
    name: Optional[str] = None,
) -> LoopRegion:
    """Manual chunking over ``std::thread`` workers.

    One chunk per thread by default — static distribution, like the
    OpenMP static schedule, but paying thread creation per region
    (``persistent=False``) or reusing a hand-rolled pool with manual
    barriers (``persistent=True``, the idiom for iterative apps; pool
    creation is charged once at program level).
    """
    params = {
        "mode": "thread",
        "nchunks": nchunks,
        "reduction": reduction,
        "persistent": persistent,
    }
    return LoopRegion(space, "threadpool", params, name or f"cxx_thread[{space.name}]")


def async_for(
    space: IterSpace,
    *,
    nchunks: Optional[int] = None,
    reduction: bool = False,
    persistent: bool = False,
    name: Optional[str] = None,
) -> LoopRegion:
    """Manual chunking over ``std::async`` tasks joined by ``future::get``.

    ``persistent=True`` reuses a deferred-task pool across phases (see
    :func:`thread_for`).
    """
    params = {
        "mode": "async",
        "nchunks": nchunks,
        "reduction": reduction,
        "persistent": persistent,
    }
    return LoopRegion(space, "threadpool", params, name or f"cxx_async[{space.name}]")


def thread_graph(
    graph: Union[TaskGraph, Callable[[int], TaskGraph]],
    *,
    name: str = "cxx-thread-graph",
) -> TaskRegion:
    """A recursive computation where every node is a ``std::thread``."""
    return TaskRegion(graph, "threadpool_graph", {"mode": "thread"}, name)


def async_graph(
    graph: Union[TaskGraph, Callable[[int], TaskGraph]],
    *,
    name: str = "cxx-async-graph",
) -> TaskRegion:
    """A recursive computation where every node is a ``std::async`` task."""
    return TaskRegion(graph, "threadpool_graph", {"mode": "async"}, name)
