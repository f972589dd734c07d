"""MPI front-end: rank-partitioned SPMD with explicit messages.

The message-passing model partitions work over ranks at compile time:
every rank owns a contiguous block of the iteration space (or task
list), interior work pays no runtime overhead at all, and all sharing
is explicit — cross-rank dependencies cost a send/recv pair plus
transport latency, and phases end in log-tree collectives
(allreduce/barrier).  This is the hybrid-vs-threads comparison of
Hasta & Mutiara: lowest overhead when communication is sparse, rigid
when it is not.

Ranks here are simulated processes multiplexed onto the machine's
hardware threads (shared-memory transport, eager path).
"""

from __future__ import annotations

from typing import Callable, Optional, Union

from repro.sim.task import IterSpace, LoopRegion, TaskGraph, TaskRegion

__all__ = ["rank_for", "rank_graph"]


def rank_for(
    space: IterSpace,
    *,
    nchunks: Optional[int] = None,
    reduction: bool = False,
    name: Optional[str] = None,
) -> LoopRegion:
    """A loop block-partitioned over the ranks (one chunk per rank).

    ``reduction=True`` ends the phase in an allreduce instead of a
    barrier.
    """
    params = {
        "nchunks": nchunks,
        "reduction": reduction,
    }
    return LoopRegion(space, "mpi_loop", params, name or f"mpi[{space.name}]")


def rank_graph(
    graph: Union[TaskGraph, Callable[[int], TaskGraph]],
    *,
    name: str = "mpi-graph",
) -> TaskRegion:
    """A task DAG block-partitioned over ranks with explicit messages."""
    return TaskRegion(graph, "mpi_graph", {}, name)
