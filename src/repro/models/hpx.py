"""HPX/ParalleX front-end: futures wired by dataflow continuations.

HPX expresses parallelism as ``hpx::async`` returning futures, composed
with ``future.then``/``when_all`` continuations; each future is backed
by a lightweight user-level thread, far cheaper than a kernel thread
(``std::async``) but dearer than a Cilk spawn.  Continuations run on
whichever worker becomes free first (continuation stealing), so load
balances even under static skew — the trade Kulkarni & Lumsdaine
measure against Charm++'s cheaper message-driven dispatch.

Loops become one future per chunk joined by a serial ``when_all`` fold;
task DAGs become dataflow: a node's continuation fires once all its
awaited futures are ready.
"""

from __future__ import annotations

from typing import Callable, Optional, Union

from repro.sim.task import IterSpace, LoopRegion, TaskGraph, TaskRegion

__all__ = ["async_for", "future_graph"]


def async_for(
    space: IterSpace,
    *,
    nchunks: Optional[int] = None,
    reduction: bool = False,
    name: Optional[str] = None,
) -> LoopRegion:
    """A loop as ``hpx::async`` futures (4 chunks per worker by default)."""
    params = {
        "nchunks": nchunks,
        "reduction": reduction,
    }
    return LoopRegion(space, "hpx_loop", params, name or f"hpx[{space.name}]")


def future_graph(
    graph: Union[TaskGraph, Callable[[int], TaskGraph]],
    *,
    name: str = "hpx-graph",
) -> TaskRegion:
    """A task DAG as a dataflow of futures and continuations."""
    return TaskRegion(graph, "hpx_graph", {}, name)
