"""Charm++ front-end: chare arrays exchanging entry-method messages.

Charm++ overdecomposes the problem into *chares* — migratable objects
addressed location-transparently — and drives execution entirely by
message delivery: a chare runs when the scheduler dequeues a message
for one of its entry methods, and runs that entry method to completion.
Loops become chare arrays (4 chares per PE by default, the Charm++
overdecomposition idiom); task DAGs become one chare per task whose
dependencies arrive as messages (``transfer`` spans on the consumer's
PE in the trace).

Placement is static at creation time (round-robin over the PEs) — the
runtime balances load by overdecomposition and (not modelled here)
periodic migration, not by stealing.  Per-task overhead is the lowest
of the AMT family: one message send + dequeue + entry dispatch,
cf. Kulkarni & Lumsdaine's AMT comparison.
"""

from __future__ import annotations

from typing import Callable, Optional, Union

from repro.sim.task import IterSpace, LoopRegion, TaskGraph, TaskRegion

__all__ = ["chare_for", "chare_graph"]


def chare_for(
    space: IterSpace,
    *,
    nchares: Optional[int] = None,
    reduction: bool = False,
    name: Optional[str] = None,
) -> LoopRegion:
    """A loop as a chare array driven by seed messages.

    ``nchares`` controls overdecomposition (default 4 per PE).
    ``reduction=True`` combines per-chare contributions up Charm++'s
    spanning-tree reduction before the completion message.
    """
    params = {
        "nchares": nchares,
        "reduction": reduction,
    }
    return LoopRegion(space, "charm_loop", params, name or f"charm[{space.name}]")


def chare_graph(
    graph: Union[TaskGraph, Callable[[int], TaskGraph]],
    *,
    name: str = "charm-graph",
) -> TaskRegion:
    """A task DAG as chares: each dependency edge is one message."""
    return TaskRegion(graph, "charm_graph", {}, name)
