"""Workload intermediate representation.

Applications (kernels, Rodinia apps) are expressed as a
:class:`Program`: an ordered list of regions, each either serial
compute, a parallel loop over an :class:`IterSpace`, or an explicit
:class:`TaskGraph` of dependent tasks.  The programming-model layer
(:mod:`repro.models`) builds regions with an ``executor`` name and
parameter dict describing *how* that model runs the region (worksharing
schedule, work-stealing deque flavour, thread-pool chunking, ...); the
runtime layer (:mod:`repro.runtime`) interprets them.

Iteration spaces store per-iteration cost at *block* resolution (a few
thousand blocks regardless of the logical trip count), so a 100-million
iteration Axpy loop costs a handful of kilobytes to represent while any
chunk ``[lo, hi)`` still gets an accurate cost via prefix-sum
interpolation.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional, Sequence, Union

import numpy as np

__all__ = [
    "Task",
    "TaskState",
    "TaskGraph",
    "IterSpace",
    "SerialRegion",
    "LoopRegion",
    "TaskRegion",
    "Program",
]


class TaskState(enum.IntEnum):
    """Lifecycle of a schedulable unit under fault injection.

    Fault-free runs only ever move PENDING → READY → RUNNING → DONE.
    The fault layer adds FAILED (an injected error fired while the task
    ran) and CANCELLED (the task was never issued because its region was
    cancelled or its spawn tree poisoned first).
    """

    PENDING = 0
    READY = 1
    RUNNING = 2
    DONE = 3
    FAILED = 4
    CANCELLED = 5


class Task(NamedTuple):
    """One schedulable unit of work.

    ``work`` is seconds of compute on one unshared core; ``membytes`` is
    memory traffic past private caches with access-pattern ``locality``
    (1.0 = streaming); ``deps`` are task ids that must complete before
    this task becomes ready.  ``spawn_cost`` is charged to the worker
    that makes the task ready (models task-descriptor creation).

    A task is an immutable named tuple: fields cannot be assigned, it
    hashes by value, and it compares equal to a plain tuple holding the
    same fields in the same order (``Task(0, 1.0) == (0, 1.0, 0.0, 1.0,
    (), "", 0.0)``).  Graphs hold tens of thousands of tasks, and a
    tuple is about three times cheaper to build than a frozen dataclass
    and about half the size.
    """

    tid: int
    work: float
    membytes: float = 0.0
    locality: float = 1.0
    deps: tuple[int, ...] = ()
    tag: str = ""
    spawn_cost: float = 0.0


class TaskGraph:
    """A DAG of :class:`Task` with dependency bookkeeping.

    Tasks must be added in a topological order: every dependency must
    name an already-added task.  This makes cycles impossible by
    construction and keeps validation O(edges).
    """

    def __init__(self, name: str = "graph") -> None:
        self.name = name
        self.tasks: list[Task] = []
        self.successors: list[list[int]] = []

    def add(
        self,
        work: float,
        membytes: float = 0.0,
        locality: float = 1.0,
        deps: Sequence[int] = (),
        tag: str = "",
        spawn_cost: float = 0.0,
    ) -> int:
        """Append a task and return its id; bad input raises
        ``ValueError`` and leaves the graph unchanged."""
        tasks = self.tasks
        successors = self.successors
        tid = len(tasks)
        if work < 0 or membytes < 0 or spawn_cost < 0:
            raise ValueError("work, membytes and spawn_cost must be non-negative")
        if not 0.0 <= locality <= 1.0:
            raise ValueError("locality must be in [0, 1]")
        deps_t = deps if type(deps) is tuple else tuple(deps)
        for d in deps_t:
            if not 0 <= d < tid:
                for prior in deps_t[:deps_t.index(d)]:
                    successors[prior].pop()
                raise ValueError(f"task {tid} depends on unknown/future task {d}")
            successors[d].append(tid)
        tasks.append(Task(tid, work, membytes, locality, deps_t, tag, spawn_cost))
        successors.append([])
        return tid

    def __len__(self) -> int:
        return len(self.tasks)

    @property
    def roots(self) -> list[int]:
        """Task ids with no dependencies, in creation order."""
        return [t.tid for t in self.tasks if not t.deps]

    def indegrees(self) -> list[int]:
        """Number of unmet dependencies per task (for a fresh execution)."""
        return [len(t.deps) for t in self.tasks]

    def total_work(self) -> float:
        """T_1: total compute seconds over all tasks (spawn costs excluded)."""
        return float(sum(t.work for t in self.tasks))

    def critical_path(self) -> float:
        """T_inf: the longest dependency chain, by task ``work``.

        Tasks are stored topologically, so a single forward pass suffices.
        """
        finish = [0.0] * len(self.tasks)
        for t in self.tasks:
            start = 0.0
            for d in t.deps:
                f = finish[d]
                if f > start:
                    start = f
            finish[t.tid] = start + t.work
        return max(finish, default=0.0)

    def expected_meta(self) -> dict:
        """Useful-work accounting for the invariant checker.

        ``expected_work``/``expected_bytes`` are what the workers' busy
        time must conserve (every task executed exactly once);
        ``critical_path`` is a makespan lower bound because per-task
        durations can only inflate ``work`` (compute speed <= 1).
        """
        byte_locs = [t.locality for t in self.tasks if t.membytes > 0]
        return {
            "expected_work": self.total_work(),
            "expected_bytes": float(sum(t.membytes for t in self.tasks)),
            # best locality bounds bandwidth from above (envelope lower
            # edge); worst bounds it from below (upper edge)
            "expected_locality": max(byte_locs) if byte_locs else 1.0,
            "expected_locality_min": min(byte_locs) if byte_locs else 1.0,
            "critical_path": self.critical_path(),
        }

    def validate(self) -> None:
        """Check structural invariants; raises ``ValueError`` on violation."""
        for t in self.tasks:
            if t.tid != self.tasks.index(t) and self.tasks[t.tid] is not t:
                raise ValueError("task ids must match positions")
            for d in t.deps:
                if d >= t.tid:
                    raise ValueError(f"task {t.tid} has non-topological dep {d}")
        if len(self.successors) != len(self.tasks):
            raise ValueError("successor table out of sync")


class IterSpace:
    """A parallel loop's iteration space with block-resolution costs.

    The loop has ``niter`` logical iterations; cost is stored as per-block
    totals over ``nblocks`` equal spans.  ``chunk_cost(lo, hi)`` returns
    the (work, membytes) of iterations ``[lo, hi)`` using prefix-sum
    interpolation, exact at block boundaries and linearly interpolated
    within a block — accurate for any chunking a scheduler produces.
    """

    def __init__(
        self,
        niter: int,
        block_work: np.ndarray,
        block_bytes: np.ndarray,
        locality: float = 1.0,
        name: str = "loop",
    ) -> None:
        if niter <= 0:
            raise ValueError("niter must be positive")
        block_work = np.asarray(block_work, dtype=np.float64)
        block_bytes = np.asarray(block_bytes, dtype=np.float64)
        if block_work.ndim != 1 or block_work.shape != block_bytes.shape:
            raise ValueError("block_work and block_bytes must be equal-length 1-D arrays")
        if block_work.size == 0:
            raise ValueError("need at least one block")
        if (block_work < 0).any() or (block_bytes < 0).any():
            raise ValueError("block costs must be non-negative")
        if not 0.0 <= locality <= 1.0:
            raise ValueError("locality must be in [0, 1]")
        self.niter = int(niter)
        self.nblocks = int(block_work.size)
        self.locality = float(locality)
        self.name = name
        # prefix sums with leading zero: cum[k] = cost of blocks [0, k)
        self._cum_work = np.concatenate(([0.0], np.cumsum(block_work)))
        self._cum_bytes = np.concatenate(([0.0], np.cumsum(block_bytes)))

    # -- constructors ----------------------------------------------------
    @classmethod
    def uniform(
        cls,
        niter: int,
        work_per_iter: float,
        bytes_per_iter: float = 0.0,
        locality: float = 1.0,
        name: str = "loop",
    ) -> "IterSpace":
        """A loop whose every iteration costs the same."""
        bw = np.array([work_per_iter * niter], dtype=np.float64)
        bb = np.array([bytes_per_iter * niter], dtype=np.float64)
        return cls(niter, bw, bb, locality, name)

    @classmethod
    def from_profile(
        cls,
        iter_work: np.ndarray,
        iter_bytes: Optional[np.ndarray] = None,
        locality: float = 1.0,
        name: str = "loop",
        max_blocks: int = 4096,
    ) -> "IterSpace":
        """Build from per-iteration cost arrays, compressing to blocks."""
        iter_work = np.asarray(iter_work, dtype=np.float64)
        n = iter_work.size
        if n == 0:
            raise ValueError("empty iteration space")
        if iter_bytes is None:
            iter_bytes = np.zeros_like(iter_work)
        iter_bytes = np.asarray(iter_bytes, dtype=np.float64)
        if iter_bytes.shape != iter_work.shape:
            raise ValueError("iter_bytes must match iter_work shape")
        nblocks = min(n, max_blocks)
        edges = np.linspace(0, n, nblocks + 1).astype(np.int64)
        cw = np.concatenate(([0.0], np.cumsum(iter_work)))
        cb = np.concatenate(([0.0], np.cumsum(iter_bytes)))
        block_work = np.diff(cw[edges])
        block_bytes = np.diff(cb[edges])
        return cls(n, block_work, block_bytes, locality, name)

    # -- cost queries ------------------------------------------------------
    def _cum_at(self, cum: np.ndarray, pos: float) -> float:
        """Interpolated prefix cost of iterations [0, pos)."""
        x = pos * self.nblocks / self.niter
        k = int(x)
        if k >= self.nblocks:
            return float(cum[-1])
        frac = x - k
        return float(cum[k] + frac * (cum[k + 1] - cum[k]))

    def chunk_cost(self, lo: int, hi: int) -> tuple[float, float]:
        """(work_seconds, membytes) of iterations ``[lo, hi)``."""
        if not 0 <= lo <= hi <= self.niter:
            raise ValueError(f"chunk [{lo}, {hi}) out of range [0, {self.niter})")
        if lo == hi:
            return (0.0, 0.0)
        work = self._cum_at(self._cum_work, hi) - self._cum_at(self._cum_work, lo)
        membytes = self._cum_at(self._cum_bytes, hi) - self._cum_at(self._cum_bytes, lo)
        return (max(work, 0.0), max(membytes, 0.0))

    def chunk_costs(self, bounds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized chunk costs for ``bounds`` (k+1 edges -> k chunks)."""
        bounds = np.asarray(bounds, dtype=np.float64)
        x = bounds * (self.nblocks / self.niter)
        k = np.minimum(x.astype(np.int64), self.nblocks)
        frac = x - k
        kp1 = np.minimum(k + 1, self.nblocks)
        cw = self._cum_work[k] + frac * (self._cum_work[kp1] - self._cum_work[k])
        cb = self._cum_bytes[k] + frac * (self._cum_bytes[kp1] - self._cum_bytes[k])
        return np.diff(cw), np.diff(cb)

    def with_extra_work_per_iter(self, extra: float) -> "IterSpace":
        """A copy with ``extra`` seconds of work added to every iteration.

        Used to model per-access overheads a programming model injects
        into the loop body (e.g. Cilk reducer hypermap lookups).
        """
        if extra < 0:
            raise ValueError("extra work must be non-negative")
        if extra == 0:
            return self
        block_work = np.diff(self._cum_work)
        block_bytes = np.diff(self._cum_bytes)
        iters_per_block = self.niter / self.nblocks
        return IterSpace(
            self.niter,
            block_work + extra * iters_per_block,
            block_bytes,
            self.locality,
            self.name,
        )

    @property
    def total_work(self) -> float:
        return float(self._cum_work[-1])

    @property
    def total_bytes(self) -> float:
        return float(self._cum_bytes[-1])

    def expected_meta(self, work_scale: float = 1.0) -> dict:
        """Useful-work accounting for the invariant checker: worker busy
        time must conserve exactly this iteration space, its work scaled
        by ``work_scale``."""
        return {
            "expected_work": self.total_work * work_scale,
            "expected_bytes": self.total_bytes,
            "expected_locality": self.locality,
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"IterSpace({self.name!r}, niter={self.niter}, "
            f"work={self.total_work:.3g}s, bytes={self.total_bytes:.3g})"
        )


# ---------------------------------------------------------------------------
# Regions and programs
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class SerialRegion:
    """Sequential code between parallel regions."""

    work: float
    membytes: float = 0.0
    locality: float = 1.0
    name: str = "serial"


@dataclass(frozen=True)
class LoopRegion:
    """A parallel loop plus the executor the programming model chose.

    ``executor`` names a runtime entry point (``"worksharing"``,
    ``"stealing_loop"``, ``"threadpool"``); ``params`` carries
    model-specific settings (schedule kind, grainsize, deque flavour,
    reduction, ...).  Built by :mod:`repro.models`, interpreted by
    :mod:`repro.runtime`.
    """

    space: IterSpace
    executor: str
    params: dict = field(default_factory=dict)
    name: str = "parallel-loop"


@dataclass(frozen=True)
class TaskRegion:
    """An explicit task DAG region.

    ``graph`` is either a :class:`TaskGraph` or a callable
    ``graph(nthreads) -> TaskGraph`` for workloads whose decomposition
    depends on the thread count (e.g. chunk-per-thread task versions).
    """

    graph: Union[TaskGraph, Callable[[int], TaskGraph]]
    executor: str
    params: dict = field(default_factory=dict)
    name: str = "task-region"

    def graph_for(self, nthreads: int) -> TaskGraph:
        g = self.graph(nthreads) if callable(self.graph) else self.graph
        if not isinstance(g, TaskGraph):
            raise TypeError(f"graph builder returned {type(g).__name__}, not TaskGraph")
        return g


Region = Union[SerialRegion, LoopRegion, TaskRegion]


@dataclass
class Program:
    """An application: an ordered sequence of regions."""

    name: str
    regions: list = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def add(self, region: Region) -> "Program":
        self.regions.append(region)
        return self

    def serial_work(self) -> float:
        """Total work of the serial regions only."""
        return sum(r.work for r in self.regions if isinstance(r, SerialRegion))

    def __iter__(self):
        return iter(self.regions)

    def __len__(self) -> int:
        return len(self.regions)
