"""OpenMP front-end: worksharing loops and explicit tasking.

Builders return regions annotated for the runtime layer:

- :func:`parallel_for` == ``#pragma omp parallel for [schedule(...)]
  [reduction(...)]`` — fork-join worksharing;
- :func:`task_loop` == ``parallel`` + ``single`` { ``task`` per chunk }
  + ``taskwait`` — the "task version" of a data-parallel kernel, using
  the Intel runtime's lock-based deques;
- :func:`task_graph` == an explicit task DAG with ``depend`` clauses /
  nested ``task`` + ``taskwait`` (used by recursive workloads);
- :func:`simd_hint` — the paper notes only OpenMP and Cilk Plus expose
  vectorization constructs; this models ``simd`` as a compute-work
  divisor on an iteration space.
"""

from __future__ import annotations

from typing import Callable, Optional, Union

from repro.sim.task import IterSpace, LoopRegion, TaskGraph, TaskRegion

__all__ = ["parallel_for", "task_loop", "task_graph", "simd_hint", "target_parallel_for"]


def parallel_for(
    space: IterSpace,
    *,
    schedule: str = "static",
    chunk: Optional[int] = None,
    reduction: bool = False,
    fork: bool = True,
    barrier: bool = True,
    name: Optional[str] = None,
) -> LoopRegion:
    """``#pragma omp parallel for`` over ``space``.

    The paper applies "OpenMP static schedule ... to all the three
    models for data parallelism" as the fair baseline, so ``static`` is
    the default here too.
    """
    params = {
        "schedule": schedule,
        "chunk": chunk,
        "reduction": reduction,
        "fork": fork,
        "barrier": barrier,
    }
    return LoopRegion(space, "worksharing", params, name or f"omp_for[{space.name}]")


def task_loop(
    space: IterSpace,
    *,
    nchunks: Optional[int] = None,
    chunks_per_thread: int = 1,
    reduction: bool = False,
    name: Optional[str] = None,
) -> LoopRegion:
    """``parallel single`` creating one ``task`` per chunk, then ``taskwait``.

    ``nchunks=None`` gives ``chunks_per_thread`` chunks per thread
    (default 1, the paper's ``BASE = N / nthreads`` cut-off; irregular
    workloads use more for load balancing).  With ``reduction`` each
    task ends in an atomic accumulate (``atomic_op``) into the result.
    """
    params = {
        "style": "flat",
        "deque": "locked",
        "nchunks": nchunks,
        "chunks_per_thread": chunks_per_thread,
        "entry": "omp_parallel",
        "exit": "taskwait+barrier",
        "undeferred_single": True,
    }
    if reduction:
        params["per_task_overhead"] = "atomic_op"
    return LoopRegion(space, "stealing_loop", params, name or f"omp_task[{space.name}]")


def task_graph(
    graph: Union[TaskGraph, Callable[[int], TaskGraph]],
    *,
    name: str = "omp-task-graph",
) -> TaskRegion:
    """An explicit OpenMP task DAG (``task``/``depend``/``taskwait``).

    Runs on lock-based deques; at one thread tasks execute undeferred,
    matching the Intel runtime's serialization fast path.
    """
    params = {
        "deque": "locked",
        "entry": "omp_parallel",
        "exit": "taskwait+barrier",
        "undeferred_single": True,
    }
    return TaskRegion(graph, "stealing", params, name)


def target_parallel_for(
    space: IterSpace,
    *,
    device=None,
    map_to: float = 0.0,
    map_from: float = 0.0,
    resident: bool = False,
    nowait: bool = False,
    name: Optional[str] = None,
) -> "LoopRegion":
    """``#pragma omp target teams distribute parallel for map(...)``.

    OpenMP's offloading construct (Table I: "host and device (target)";
    Table II: ``map(to/from/tofrom/alloc)``).  ``map_to``/``map_from``
    are the mapped byte counts; ``resident`` models an enclosing
    ``target data`` region; ``nowait`` gives the asynchronous form.
    """
    params = {
        "device": device,
        "to_bytes": map_to,
        "from_bytes": map_from,
        "resident": resident,
        "async_overlap": nowait,
    }
    return LoopRegion(space, "offload", params, name or f"omp_target[{space.name}]")


def simd_hint(space: IterSpace, vector_width: float = 4.0) -> IterSpace:
    """Model ``#pragma omp simd``: divide per-iteration compute work.

    Memory traffic is unchanged — vectorization does not create
    bandwidth.  Returns a new iteration space.
    """
    if vector_width < 1.0:
        raise ValueError("vector_width must be >= 1")
    import numpy as np

    block_work = np.diff(space._cum_work) / vector_width
    block_bytes = np.diff(space._cum_bytes)
    return IterSpace(space.niter, block_work, block_bytes, space.locality, space.name)
