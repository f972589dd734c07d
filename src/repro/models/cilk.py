"""Cilk Plus front-end: ``cilk_for``, ``cilk_spawn``/``cilk_sync``, reducers.

``cilk_for`` compiles to a recursive binary splitter tree executed by
the THE-protocol work-stealing runtime — chunk distribution happens by
thieves stealing subtree tasks, which is the mechanism the paper blames
for cilk_for's data-parallel overhead ("workstealing operations in Cilk
Plus serialize the distributions of loop chunks among threads").

Reductions use reducer hyperobjects: every loop-body accumulate pays a
hypermap access, every steal lazily creates a view, and views merge at
the sync — together these reproduce the ~5x Sum gap of Fig. 2.
"""

from __future__ import annotations

from typing import Callable, Optional, Union

from repro.sim.task import IterSpace, LoopRegion, TaskGraph, TaskRegion

__all__ = ["cilk_for", "spawn_loop", "spawn_graph", "array_notation_hint"]


def cilk_for(
    space: IterSpace,
    *,
    grainsize: Optional[int] = None,
    reducer: bool = False,
    name: Optional[str] = None,
) -> LoopRegion:
    """``cilk_for`` over ``space``.

    ``grainsize=None`` uses the Cilk Plus automatic grainsize
    ``min(2048, N / 8p)``.  ``reducer=True`` models a reducer
    hyperobject accumulated in the loop body.
    """
    params = {
        "style": "cilk_for",
        "deque": "the",
        "grainsize": grainsize,
        "reducer": reducer,
        "entry": "cilk",
        "exit": "sync",
    }
    return LoopRegion(space, "stealing_loop", params, name or f"cilk_for[{space.name}]")


def spawn_loop(
    space: IterSpace,
    *,
    nchunks: Optional[int] = None,
    chunks_per_thread: int = 1,
    reducer: bool = False,
    name: Optional[str] = None,
) -> LoopRegion:
    """The "task version" in Cilk: a loop of ``cilk_spawn`` chunk calls.

    The paper's task implementations spawn one chunk per thread
    (``nchunks=None``, ``chunks_per_thread=1`` keeps that default).
    Spawned chunks distribute via FIFO steals of whole contiguous
    chunks, so no placement penalty applies (unlike the scattered
    cilk_for subtrees).
    """
    params = {
        "style": "flat",
        "deque": "the",
        "nchunks": nchunks,
        "chunks_per_thread": chunks_per_thread,
        "reducer": reducer,
        "entry": "cilk",
        "exit": "sync",
    }
    return LoopRegion(space, "stealing_loop", params, name or f"cilk_spawn[{space.name}]")


def spawn_graph(
    graph: Union[TaskGraph, Callable[[int], TaskGraph]],
    *,
    reducer: bool = False,
    name: str = "cilk-spawn-graph",
) -> TaskRegion:
    """A recursive ``cilk_spawn``/``cilk_sync`` computation.

    The DAG encodes spawn tasks and sync continuations (see
    :mod:`repro.kernels.fib`); the THE deque keeps owner push/pop
    lock-free.
    """
    params = {
        "deque": "the",
        "entry": "cilk",
        "exit": "sync",
        "reducer": reducer,
    }
    return TaskRegion(graph, "stealing", params, name)


def array_notation_hint(space: IterSpace, vector_width: float = 4.0) -> IterSpace:
    """Model Cilk Plus array notation / elemental functions (vectorize).

    Equivalent to :func:`repro.models.openmp.simd_hint`: compute work is
    divided by the vector width, memory traffic unchanged.
    """
    from repro.models.openmp import simd_hint

    return simd_hint(space, vector_width)
