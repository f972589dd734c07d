"""Task Bench-style parameterized dependency-graph workload.

Task Bench (Slaughter et al.; see also "Quantifying Overheads in
Charm++ and HPX using Task Bench", PAPERS.md) measures runtime-system
overhead with one configurable benchmark: a grid of tasks, ``width``
per step by ``steps`` deep, whose inter-step dependencies follow a
named pattern and whose per-task compute grain is a free parameter.
Sweeping the grain downward exposes each runtime's **minimum effective
task granularity** (MET): the smallest per-task work at which the
runtime still achieves a target efficiency.

This module reproduces that methodology inside the simulator.  Four
dependency patterns are supported:

- ``stencil`` — task ``(s, i)`` depends on ``(s-1, i-1..i+1)``
  (clamped at the edges): nearest-neighbour halo exchange;
- ``tree`` — a fork/join diamond: width doubles from 1 up to ``width``
  then halves back down over ``steps`` levels;
- ``fft`` — butterfly: ``(s, i)`` depends on ``(s-1, i)`` and its
  XOR-partner ``(s-1, i ^ 2^((s-1) mod log2(width)))``;
- ``random`` — ``(s, i)`` depends on ``(s-1, i)`` plus up to
  ``fan - 1`` seeded-random tasks of the previous step.

Graphs are pure functions of their parameters (the ``random`` pattern
derives from ``seed`` alone), so the registered ``taskbench`` workload
is deterministic end to end: same cell, same cache key, same result.
Every task-capable runtime in the zoo executes it — OpenMP tasks and
Cilk spawns on the work-stealing runtimes, C++11 ``std::thread`` /
``std::async`` on the thread-per-task pools.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

from repro.models import charm, cilk, cxx11, hpx, mpi, openmp
from repro.sim.machine import Machine
from repro.sim.task import Program, TaskGraph, TaskRegion

__all__ = [
    "PATTERNS",
    "TASKBENCH_VERSIONS",
    "GrainPoint",
    "met_sweep",
    "minimum_effective_grain",
    "program",
    "taskbench_graph",
    "tree_levels",
]

PATTERNS = ("stencil", "tree", "fft", "random")

#: The task-capable runtimes: data-parallel loop versions have no
#: natural rendering of an arbitrary DAG (the paper's fib argument).
#: The AMT family (charm/hpx/mpi) renders DAGs natively — messages,
#: dataflow futures and rank-partitioned sends respectively.
TASKBENCH_VERSIONS = ("omp_task", "cilk_spawn", "cxx_thread", "cxx_async", "charm", "hpx", "mpi")


def tree_levels(width: int, steps: int) -> list[int]:
    """Per-step task counts of the ``tree`` pattern's fork/join diamond.

    Width doubles from 1 (capped at ``width``) over the first half of
    the levels, then mirrors back down to 1 — a fork phase feeding a
    reduction phase, both with tunable depth.
    """
    if width < 1 or steps < 1:
        raise ValueError("width and steps must be positive")
    half = (steps + 1) // 2
    up = [min(width, 1 << s) for s in range(half)]
    down = [min(width, 1 << (steps - 1 - s)) for s in range(half, steps)]
    return up + down


def _level_deps(i: int, prev_width: int, cur_width: int) -> range:
    """Parents of child ``i`` between levels of widths ``prev -> cur``.

    A single interval formula covers fan-out (each child gets the one
    parent its index maps onto), fan-in (children partition the parent
    level), and 1:1 levels.
    """
    lo = i * prev_width // cur_width
    hi = max(lo + 1, (i + 1) * prev_width // cur_width)
    return range(min(lo, prev_width - 1), min(hi, prev_width))


def taskbench_graph(
    pattern: str = "stencil",
    width: int = 32,
    steps: int = 8,
    grain: float = 5e-6,
    *,
    membytes: float = 0.0,
    locality: float = 1.0,
    fan: int = 3,
    seed: int = 0,
) -> TaskGraph:
    """Build one Task Bench graph: ``width`` tasks per step, ``steps``
    deep, ``grain`` seconds of compute per task.

    ``fan`` bounds the dependency count per task (stencil radius + 1;
    extra random parents for ``random``); ``membytes`` / ``locality``
    give every task memory traffic for roofline-bound variants.
    """
    if pattern not in PATTERNS:
        raise ValueError(f"unknown pattern {pattern!r}; expected one of {PATTERNS}")
    if width < 1 or steps < 1:
        raise ValueError("width and steps must be positive")
    if grain < 0:
        raise ValueError("grain must be non-negative")
    if fan < 1:
        raise ValueError("fan must be positive")
    g = TaskGraph(f"taskbench-{pattern}({width}x{steps})")
    rng = random.Random(seed)

    def add(deps: Iterable[int]) -> int:
        return g.add(grain, membytes, locality, deps=tuple(deps), tag=pattern)

    if pattern == "tree":
        levels = tree_levels(width, steps)
        prev: list[int] = []
        for s, w in enumerate(levels):
            cur = []
            for i in range(w):
                deps = () if s == 0 else [prev[j] for j in _level_deps(i, len(prev), w)]
                cur.append(add(deps))
            prev = cur
        return g

    radius = fan // 2
    nbits = max(1, (width - 1).bit_length())
    prev = []
    for s in range(steps):
        cur = []
        for i in range(width):
            if s == 0:
                deps: Sequence[int] = ()
            elif pattern == "stencil":
                lo = max(0, i - radius)
                hi = min(width - 1, i + radius)
                deps = [prev[j] for j in range(lo, hi + 1)]
            elif pattern == "fft":
                partner = i ^ (1 << ((s - 1) % nbits))
                deps = [prev[i]] + ([prev[partner]] if partner < width else [])
            else:  # random
                extra = {rng.randrange(width) for _ in range(rng.randrange(fan))}
                extra.discard(i)
                deps = [prev[i]] + [prev[j] for j in sorted(extra)]
            cur.append(add(deps))
        prev = cur
    return g


def program(
    version: str,
    *,
    machine: Machine,
    pattern: str = "stencil",
    width: int = 32,
    steps: int = 8,
    grain: float = 5e-6,
    membytes: float = 0.0,
    locality: float = 1.0,
    fan: int = 3,
    seed: int = 0,
) -> Program:
    """The Task Bench workload in one of the task-capable versions.

    The loop versions (``omp_for``, ``cilk_for``) raise ``ValueError``:
    an arbitrary DAG has no data-parallel rendering (same argument as
    fib).  ``machine`` is accepted for registry-builder uniformity;
    grain is already in seconds.
    """
    del machine  # grain is machine-independent seconds of compute
    graph = taskbench_graph(
        pattern, width, steps, grain,
        membytes=membytes, locality=locality, fan=fan, seed=seed,
    )
    label = f"{pattern}({width}x{steps})"
    if version == "omp_task":
        region: TaskRegion = openmp.task_graph(graph, name=f"omp-tb-{label}")
    elif version == "cilk_spawn":
        region = cilk.spawn_graph(graph, name=f"cilk-tb-{label}")
    elif version == "cxx_async":
        region = cxx11.async_graph(graph, name=f"cxx-async-tb-{label}")
    elif version == "cxx_thread":
        region = cxx11.thread_graph(graph, name=f"cxx-thread-tb-{label}")
    elif version == "charm":
        region = charm.chare_graph(graph, name=f"charm-tb-{label}")
    elif version == "hpx":
        region = hpx.future_graph(graph, name=f"hpx-tb-{label}")
    elif version == "mpi":
        region = mpi.rank_graph(graph, name=f"mpi-tb-{label}")
    else:
        raise ValueError(
            f"taskbench has no {version!r} version; task-capable versions: "
            f"{TASKBENCH_VERSIONS}"
        )
    prog = Program(
        f"taskbench-{label}",
        meta={
            "version": version,
            "kernel": "taskbench",
            "pattern": pattern,
            "width": width,
            "steps": steps,
            "grain": grain,
        },
    )
    return prog.add(region)


def build_taskgraph_program(
    name: str, version: str, machine: Machine, **params
) -> Program:
    """Registry dispatch target for ``kind == "taskgraph"`` specs."""
    if name != "taskbench":
        raise KeyError(f"unknown task-graph workload {name!r}")
    return program(version, machine=machine, **params)


# ---------------------------------------------------------------------------
# Minimum effective task granularity (MET) sweep
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class GrainPoint:
    """One point of an overhead-vs-grain curve.

    ``ideal`` is the greedy-scheduling lower bound ``max(T1/p, T_inf)``
    on the fault-free graph; ``efficiency`` is ``ideal / time`` and
    ``overhead`` the Task Bench metric ``time / ideal - 1``.
    """

    grain: float
    time: float
    ideal: float

    @property
    def efficiency(self) -> float:
        return self.ideal / self.time if self.time > 0 else 1.0

    @property
    def overhead(self) -> float:
        return self.time / self.ideal - 1.0 if self.ideal > 0 else 0.0


#: Default grain sweep: 0.5 us up to 100 us per task, log-spaced.
DEFAULT_GRAINS = (5e-7, 1e-6, 2e-6, 5e-6, 1e-5, 2e-5, 5e-5, 1e-4)


def met_sweep(
    versions: Sequence[str] = TASKBENCH_VERSIONS,
    grains: Sequence[float] = DEFAULT_GRAINS,
    *,
    pattern: str = "stencil",
    width: int = 32,
    steps: int = 8,
    nthreads: int = 8,
    ctx=None,
    fidelity: int = 2,
    extra: Optional[Mapping] = None,
) -> dict[str, list[GrainPoint]]:
    """Overhead-vs-grain curve per runtime: the Task Bench methodology.

    Runs the same graph shape at every ``grain`` for every version and
    returns per-version :class:`GrainPoint` lists (ascending grain).
    ``fidelity`` is 0 (analytic estimate) or 2 (event-driven
    simulation).
    """
    from repro.runtime.base import ExecContext
    from repro.runtime.run import run_program
    from repro.sim.tiers import estimate_program

    if ctx is None:
        ctx = ExecContext()
    ctx = ctx.with_fidelity(fidelity)
    params = dict(extra or {})
    curves: dict[str, list[GrainPoint]] = {v: [] for v in versions}
    for grain in sorted(grains):
        shape = taskbench_graph(pattern, width, steps, grain, **params)
        ideal = max(shape.total_work() / nthreads, shape.critical_path())
        for version in versions:
            prog = program(
                version, machine=ctx.machine, pattern=pattern,
                width=width, steps=steps, grain=grain, **params,
            )
            if fidelity == 0:
                res = estimate_program(prog, nthreads, ctx, version)
            else:
                res = run_program(prog, nthreads, ctx, version)
            curves[version].append(GrainPoint(grain, res.time, ideal))
    return curves


def minimum_effective_grain(
    points: Sequence[GrainPoint], threshold: float = 0.5
) -> Optional[float]:
    """Smallest grain whose efficiency meets ``threshold`` (Task Bench's
    METG); ``None`` when no swept grain reaches it."""
    for pt in sorted(points, key=lambda p: p.grain):
        if pt.efficiency >= threshold:
            return pt.grain
    return None
