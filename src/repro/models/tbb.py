"""Intel TBB front-end: partitioned loops, reduce, task spawn, pipeline.

Table I lists TBB's ``parallel_for/while/do``, ``task::spawn/wait`` and
pipeline / ``flow::graph`` data-flow support; Table II its
``affinity_partitioner`` (the one data/computation-binding mechanism
among the host-only models) and ``parallel_reduce``.  Section III.B:
"The Cilk Plus and TBB use random work-stealing scheduler to
dynamically schedule tasks on all cores."

The partitioner is the interesting dial:

- ``simple``   — split down to ``grainsize`` (default 1): very fine
  chunks, full scatter penalty;
- ``auto``     — demand-driven splitting with the library's default
  grain (modelled like cilk_for's automatic grainsize);
- ``affinity`` — remembers which worker ran which subrange and replays
  the mapping: no placement penalty at all (Table II's binding cell).
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Union

from repro.sim.costs import CostModel
from repro.sim.task import IterSpace, LoopRegion, TaskGraph, TaskRegion

__all__ = ["parallel_for", "parallel_reduce", "task_spawn_graph", "pipeline_graph", "pipeline"]

_PARTITIONERS = ("auto", "simple", "affinity")


def parallel_for(
    space: IterSpace,
    *,
    partitioner: str = "auto",
    grainsize: Optional[int] = None,
    name: Optional[str] = None,
) -> LoopRegion:
    """``tbb::parallel_for(range, body, partitioner)``.

    ``grainsize`` only applies to the simple partitioner (TBB semantics);
    the auto partitioner targets a few chunks per worker.
    """
    if partitioner not in _PARTITIONERS:
        raise ValueError(f"unknown partitioner {partitioner!r}; expected {_PARTITIONERS}")
    params = {
        "style": "cilk_for",  # binary range splitting on work stealing
        "deque": "the",
        "entry": "none",
        "exit": "sync",
    }
    if partitioner == "simple":
        params["grainsize"] = grainsize if grainsize is not None else 1
    elif partitioner == "auto":
        # ~2 chunks per worker, refined on steal; modelled as a coarse
        # grainsize resolved per thread count at run time (None -> auto
        # cilk-style), with the penalty damped by the coarse chunks.
        params["grainsize"] = grainsize
    else:  # affinity
        params["grainsize"] = grainsize
        params["apply_scatter_penalty"] = False
    return LoopRegion(
        space, "stealing_loop", params, name or f"tbb_for[{space.name}]({partitioner})"
    )


def parallel_reduce(
    space: IterSpace,
    *,
    partitioner: str = "auto",
    grainsize: Optional[int] = None,
    name: Optional[str] = None,
) -> LoopRegion:
    """``tbb::parallel_reduce``: subrange bodies + pairwise joins.

    Unlike a Cilk reducer there is no per-access hyperobject cost —
    joins happen once per split — so Sum-style loops stay cheap.
    """
    region = parallel_for(
        space, partitioner=partitioner, grainsize=grainsize,
        name=name or f"tbb_reduce[{space.name}]",
    )
    # one join per split, charged with the taskwait at region exit; the
    # splitter tasks already exist, so fold the join cost into per-task
    # overhead
    region.params["per_task_overhead"] = "tbb_join"
    return region


def task_spawn_graph(
    graph: Union[TaskGraph, Callable[[int], TaskGraph]],
    *,
    name: str = "tbb-task-graph",
) -> TaskRegion:
    """``task::spawn`` / ``wait_for_all`` over an explicit DAG."""
    params = {
        "deque": "the",
        "spawn_cost": "tbb_spawn",
        "entry": "none",
        "exit": "sync",
    }
    return TaskRegion(graph, "stealing", params, name)


def pipeline_graph(
    stage_works: Sequence[float],
    serial_stages: Sequence[bool],
    ntokens: int,
) -> TaskGraph:
    """Build a ``tbb::pipeline`` DAG: ``ntokens`` items through stages.

    Item *i* at stage *s* depends on item *i* at stage *s-1*; a
    *serial* stage additionally depends on item *i-1* at the same stage
    (in-order token processing) — giving the classic result that the
    slowest serial stage bounds throughput.  Every stage task pays one
    token handoff, the default ``CostModel.pipeline_token`` folded into
    its work.
    """
    if len(stage_works) != len(serial_stages):
        raise ValueError("stage_works and serial_stages must align")
    if not stage_works:
        raise ValueError("need at least one stage")
    if ntokens <= 0:
        raise ValueError("ntokens must be positive")
    token_cost = CostModel.pipeline_token
    g = TaskGraph(f"pipeline[{len(stage_works)}x{ntokens}]")
    prev_row: list[int] = []
    for s, (work, serial) in enumerate(zip(stage_works, serial_stages)):
        if work < 0:
            raise ValueError("stage work must be non-negative")
        row: list[int] = []
        for i in range(ntokens):
            deps = []
            if s > 0:
                deps.append(prev_row[i])
            if serial and i > 0:
                deps.append(row[i - 1])
            row.append(g.add(work + token_cost, deps=deps, tag=f"stage{s}"))
        prev_row = row
    return g


def pipeline(
    stage_works: Sequence[float],
    serial_stages: Sequence[bool],
    ntokens: int,
    *,
    name: Optional[str] = None,
) -> TaskRegion:
    """A ``tbb::pipeline`` region (Table I: data/event-driven)."""
    graph = pipeline_graph(stage_works, serial_stages, ntokens)
    return task_spawn_graph(graph, name=name or graph.name)
