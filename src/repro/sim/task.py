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

Task graphs are columnar, after Task Bench's graphs of array indices
rather than objects: a :class:`TaskGraph` holds one list per task field
(``work``, ``membytes``, ``locality``, ``spawn_cost``, a tag id into a
small name table) and its dependencies in CSR form (``dep_ptr``,
``dep_idx``).  The successor CSR is built from the deps on first use
(again after a later ``add``), with a stable order: each task lists its
successors in increasing id, the order the work-stealing loop pushes
them in.  A graph grows one task at a time through
:meth:`TaskGraph.add` or arrives whole through
:meth:`TaskGraph.from_columns` (the Fibonacci, ``cilk_for`` and
flat-chunk builders); both reject the same bad input with the same
errors, and :meth:`TaskGraph.validate` re-checks a graph in O(edges).
Executors and estimators index the columns; ``graph.tasks`` is a
read-only view that builds :class:`Task` records on demand, for tests
and debugging.

T_inf (:meth:`TaskGraph.critical_path`, the ``critical_path`` every
graph region's meta carries) comes from a forward pass over the deps,
which is the reference.  A builder that knows its graph's shape may
supply the value instead, computed from that shape (Fibonacci by a
recurrence on the frame size, the ``cilk_for`` tree from its depths,
flat chunks as their longest chunk); it must equal the forward pass
bit for bit, :meth:`TaskGraph.validate` checks that it does, and
:meth:`TaskGraph.add` drops it.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import compress, islice
from operator import sub
from typing import Callable, NamedTuple, Optional, Union

import numpy as np

__all__ = [
    "Task",
    "TaskGraph",
    "IterSpace",
    "SerialRegion",
    "LoopRegion",
    "TaskRegion",
    "Program",
]


class Task(NamedTuple):
    """One schedulable unit of work, as a record.

    ``work`` is seconds of compute on one unshared core; ``membytes`` is
    memory traffic past private caches with access-pattern ``locality``
    (1.0 = streaming); ``deps`` are task ids that must complete before
    this task becomes ready.  ``spawn_cost`` is charged to the worker
    that makes the task ready (models task-descriptor creation).

    A :class:`TaskGraph` stores its tasks as columns, not records;
    ``graph.tasks[i]`` builds this record on demand for tests and
    debugging.  It is an immutable named tuple: fields cannot be
    assigned, it hashes by value, and it compares equal to a plain tuple
    holding the same fields in the same order (``Task(0, 1.0) == (0,
    1.0, 0.0, 1.0, (), "", 0.0)``).
    """

    tid: int
    work: float
    membytes: float = 0.0
    locality: float = 1.0
    deps: tuple[int, ...] = ()
    tag: str = ""
    spawn_cost: float = 0.0


def _check_columns(work, membytes, locality, spawn_cost, tag_id, ntags, dep_ptr, dep_idx):
    """:meth:`TaskGraph.add`'s checks over whole column arrays (one value
    may stand for a whole column).  Raises ``ValueError`` on the first
    failure, with ``add``'s message where ``add`` has the same check."""
    n = work.size
    if (work.ndim != 1 or dep_ptr.shape != (n + 1,) or dep_ptr[0] != 0
            or dep_ptr[-1] != dep_idx.size
            or any(a.ndim and a.shape != (n,) for a in (membytes, locality, spawn_cost, tag_id))):
        raise ValueError("columns must have equal length")
    # `>= 0` rather than `< 0`, so that NaN fails too
    if not ((work >= 0).all() and (membytes >= 0).all() and (spawn_cost >= 0).all()):
        raise ValueError("work, membytes and spawn_cost must be non-negative")
    if not ((locality >= 0.0) & (locality <= 1.0)).all():
        raise ValueError("locality must be in [0, 1]")
    if n and not (0 <= tag_id.min() and tag_id.max() < ntags):
        raise ValueError("tag ids must index tag_names")
    if (np.diff(dep_ptr) < 0).any():
        raise ValueError("dep_ptr must be non-decreasing")
    owner = _owners(dep_ptr)
    bad = (dep_idx < 0) | (dep_idx >= owner)
    if bad.any():
        k = int(np.argmax(bad))
        raise ValueError(f"task {owner[k]} depends on unknown/future task {dep_idx[k]}")


def _owners(dep_ptr: np.ndarray) -> np.ndarray:
    """The task id of every edge of a dependency CSR."""
    n = dep_ptr.size - 1
    return np.repeat(np.arange(n, dtype=np.int64), np.diff(dep_ptr))


def _successor_csr(dep_ptr: np.ndarray, dep_idx: np.ndarray) -> tuple[list[int], list[int]]:
    """The successor CSR ``(succ_ptr, succ_idx)`` of a dependency CSR,
    each source's successors in increasing task id: the edges are listed
    in task order, and a stable sort by source keeps that order."""
    n = dep_ptr.size - 1
    ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(dep_idx, minlength=n), out=ptr[1:])
    return ptr.tolist(), _owners(dep_ptr)[np.argsort(dep_idx, kind="stable")].tolist()


class _TaskView(Sequence):
    """Read-only sequence of :class:`Task` records over a graph's
    columns; each record is built when it is read."""

    __slots__ = ("_graph",)

    def __init__(self, graph: "TaskGraph") -> None:
        self._graph = graph

    def __len__(self) -> int:
        return len(self._graph.work)

    def __getitem__(self, i):
        g = self._graph
        if isinstance(i, slice):
            return [self[j] for j in range(len(g.work))[i]]
        i = range(len(g.work))[i]  # negative ids count from the end, as in a list
        dp = g.dep_ptr
        return Task(i, g.work[i], g.membytes[i], g.locality[i],
                    tuple(g.dep_idx[dp[i]:dp[i + 1]]), g.tag_names[g.tag_id[i]],
                    g.spawn_cost[i])


class TaskGraph:
    """A DAG of tasks stored as parallel per-task columns (see the
    module docstring).

    Task ``t``'s fields are ``work[t]``, ``membytes[t]``, ``locality[t]``,
    ``spawn_cost[t]`` and ``tag_names[tag_id[t]]``; its dependencies are
    ``dep_idx[dep_ptr[t]:dep_ptr[t + 1]]``.  Columns are Python lists, so
    executors index them without boxing.  Every dependency names an
    earlier task, so cycles are unrepresentable.
    """

    def __init__(self, name: str = "graph") -> None:
        self.name = name
        self.work: list[float] = []
        self.membytes: list[float] = []
        self.locality: list[float] = []
        self.spawn_cost: list[float] = []
        self.tag_id: list[int] = []
        self.tag_names: list[str] = []
        self.dep_ptr: list[int] = [0]
        self.dep_idx: list[int] = []
        self._succ: Optional[tuple[list[int], list[int]]] = None
        self._cp: Optional[float] = None

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
        tid = len(self.work)
        if not (work >= 0 and membytes >= 0 and spawn_cost >= 0):  # NaN fails too
            raise ValueError("work, membytes and spawn_cost must be non-negative")
        if not 0.0 <= locality <= 1.0:
            raise ValueError("locality must be in [0, 1]")
        deps_t = deps if type(deps) is tuple else tuple(deps)
        for d in deps_t:
            if not 0 <= d < tid:
                raise ValueError(f"task {tid} depends on unknown/future task {d}")
        try:
            tag_id = self.tag_names.index(tag)
        except ValueError:
            tag_id = len(self.tag_names)
            self.tag_names.append(tag)
        self.work.append(work)
        self.membytes.append(membytes)
        self.locality.append(locality)
        self.spawn_cost.append(spawn_cost)
        self.tag_id.append(tag_id)
        self.dep_idx.extend(deps_t)
        self.dep_ptr.append(len(self.dep_idx))
        self._succ = None
        self._cp = None
        return tid

    @classmethod
    def from_columns(
        cls,
        name: str,
        work,
        membytes=0.0,
        locality=1.0,
        spawn_cost=0.0,
        *,
        tag_id=0,
        tag_names: Sequence[str] = ("",),
        dep_ptr=None,
        dep_idx=(),
        critical_path: Optional[float] = None,
    ) -> "TaskGraph":
        """A graph from whole columns, validated in one vectorized pass.

        ``work`` fixes the task count; ``membytes``, ``locality``,
        ``spawn_cost`` and ``tag_id`` are per-task arrays or one value
        for every task.  Deps are the CSR pair ``dep_ptr`` (``n + 1``
        offsets; ``None`` for no deps) and ``dep_idx``.  Bad input
        raises the ``ValueError`` :meth:`add` would.

        A builder that knows its graph's shape may pass T_inf as
        ``critical_path``; it must equal the forward pass of
        :meth:`critical_path` bit for bit (:meth:`validate` checks).
        """
        work, membytes, locality, spawn_cost = (
            np.asarray(a, dtype=np.float64) for a in (work, membytes, locality, spawn_cost))
        tag_id = np.asarray(tag_id, dtype=np.int64)
        n = work.size
        if dep_ptr is None:
            dep_ptr = np.zeros(n + 1, dtype=np.int64)
        dep_ptr = np.asarray(dep_ptr, dtype=np.int64)
        dep_idx = np.asarray(dep_idx, dtype=np.int64).ravel()
        _check_columns(work, membytes, locality, spawn_cost, tag_id, len(tag_names),
                       dep_ptr, dep_idx)
        g = cls(name)
        # one value stands for every task by reference, not as n objects
        g.work, g.membytes, g.locality, g.spawn_cost, g.tag_id = (
            a.tolist() if a.ndim else [a.item()] * n
            for a in (work, membytes, locality, spawn_cost, tag_id)
        )
        g.tag_names = list(tag_names)
        g.dep_ptr, g.dep_idx = dep_ptr.tolist(), dep_idx.tolist()
        g._cp = None if critical_path is None else float(critical_path)
        return g

    def __len__(self) -> int:
        return len(self.work)

    @property
    def tasks(self) -> Sequence[Task]:
        """Read-only :class:`Task` records, built on demand."""
        return _TaskView(self)

    def successor_index(self) -> tuple[list[int], list[int]]:
        """Successor CSR ``(succ_ptr, succ_idx)``: task ``t``'s successors
        are ``succ_idx[succ_ptr[t]:succ_ptr[t + 1]]``, in increasing id."""
        if self._succ is None:
            self._succ = _successor_csr(np.asarray(self.dep_ptr, dtype=np.int64),
                                        np.asarray(self.dep_idx, dtype=np.int64))
        return self._succ

    @property
    def successors(self) -> list[list[int]]:
        """Successor lists per task (a copy of :meth:`successor_index`)."""
        ptr, idx = self.successor_index()
        return [idx[ptr[t]:ptr[t + 1]] for t in range(len(self))]

    @property
    def roots(self) -> list[int]:
        """Task ids with no dependencies, in creation order."""
        return [tid for tid, n in enumerate(self.indegrees()) if not n]

    def indegrees(self) -> list[int]:
        """Number of unmet dependencies per task (for a fresh execution)."""
        dp = self.dep_ptr
        return list(map(sub, islice(dp, 1, None), dp))

    def total_work(self) -> float:
        """T_1: total compute seconds over all tasks (spawn costs excluded)."""
        return float(sum(self.work))

    def critical_path(self) -> float:
        """T_inf: the longest dependency chain, by task ``work``.

        The value a builder supplied, else the forward pass (the
        reference): tasks are stored topologically, so a task's finish is
        the latest finish among its deps plus its ``work``.
        """
        if self._cp is not None:
            return self._cp
        return self._forward_critical_path()

    def _forward_critical_path(self) -> float:
        finish: list[float] = []
        append = finish.append
        di = self.dep_idx
        lo = 0
        for hi, work in zip(islice(self.dep_ptr, 1, None), self.work):
            start = 0.0
            while lo < hi:
                f = finish[di[lo]]
                if f > start:
                    start = f
                lo += 1
            append(start + work)
        return max(finish, default=0.0)

    def expected_meta(self) -> dict:
        """Useful-work accounting for the invariant checker.

        ``expected_work``/``expected_bytes`` are what the workers' busy
        time must conserve (every task executed exactly once);
        ``critical_path`` is a makespan lower bound because per-task
        durations can only inflate ``work`` (compute speed <= 1).
        """
        membytes = self.membytes
        byte_locs = (
            list(compress(self.locality, membytes)) if any(membytes) else []
        )
        return {
            "expected_work": self.total_work(),
            "expected_bytes": float(sum(membytes)),
            # best locality bounds bandwidth from above (envelope lower
            # edge); worst bounds it from below (upper edge)
            "expected_locality": max(byte_locs) if byte_locs else 1.0,
            "expected_locality_min": min(byte_locs) if byte_locs else 1.0,
            "critical_path": self.critical_path(),
        }

    def validate(self) -> None:
        """Check structural invariants in O(edges); raises ``ValueError``
        on violation: every column passes :meth:`add`'s checks, every
        dep names an earlier task, a built successor index is exactly
        the stable reverse of the deps, and a supplied critical path is
        the forward pass's value."""
        dep_ptr = np.asarray(self.dep_ptr, dtype=np.int64)
        dep_idx = np.asarray(self.dep_idx, dtype=np.int64)
        _check_columns(
            *(np.asarray(c, dtype=np.float64)
              for c in (self.work, self.membytes, self.locality, self.spawn_cost)),
            np.asarray(self.tag_id, dtype=np.int64), len(self.tag_names), dep_ptr, dep_idx)
        if self._succ is not None and self._succ != _successor_csr(dep_ptr, dep_idx):
            raise ValueError("successor table out of sync")
        if self._cp is not None and self._cp != self._forward_critical_path():
            raise ValueError("critical path out of sync")


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
        if not ((block_work >= 0).all() and (block_bytes >= 0).all()):  # NaN fails too
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

    def expected_meta(self) -> dict:
        """Useful-work accounting for the invariant checker: worker busy
        time must conserve exactly this iteration space."""
        return {
            "expected_work": self.total_work,
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
