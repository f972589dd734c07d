"""Work-stealing deque models.

The paper attributes the Fibonacci performance gap between ``cilk_spawn``
and ``omp task`` to the deque protocol: the Cilk Plus runtime uses the
THE protocol (Frigo et al., PLDI'98) in which the *owner's* tail
push/pop is lock-free and only thieves take the deque lock, while the
Intel OpenMP runtime uses a lock-based deque where every push, pop and
steal acquires the lock, "which increases more contention and overhead".

Both flavours are modelled here over a shared :class:`~repro.sim.engine.SimLock`
per deque.  Owner operations on a :class:`THEDeque` cost a constant and
never touch the lock; every operation on a :class:`LockedDeque` holds
the lock for its stated duration, so owners and thieves serialize.

Operations mutate state at call time and return the simulated time at
which the operation completes.  Callers (the work-stealing scheduler)
invoke operations in event-time order, which keeps the FIFO lock
approximation consistent.

The scheduler's event loop (``StealingScheduler._drain``) does not call
:meth:`THEDeque.push` and :meth:`THEDeque.pop`: since they take no lock
it performs them itself on ``items``, charging ``the_push`` /
``the_pop`` with the same float operations, and writes ``pushes``,
``pops`` and ``max_depth`` back once per region.  It does not count
pops as they happen: every item pushed either left by an owner pop or
a steal or is still queued, so it derives ``pops`` at write-back from
the pushes, steals and final length.  The methods remain the reference
the loop must match (``tests/test_drain_counters.py``) and serve every
other caller.  Steals, and every
:class:`LockedDeque` operation, always go through the methods.
"""

from __future__ import annotations

from collections import deque as _pydeque
from typing import Any, Optional

from repro.sim.costs import CostModel
from repro.sim.engine import SimLock

__all__ = ["WorkDeque", "THEDeque", "LockedDeque", "make_deque"]


class WorkDeque:
    """Common state: a double-ended queue of task ids plus statistics.

    ``max_depth`` tracks the high-water occupancy — the queue-depth
    metric the observability layer reports (a deep deque means the owner
    outran its thieves; a shallow one means distribution is the
    bottleneck)."""

    __slots__ = ("items", "lock", "owner", "pushes", "pops", "steals", "max_depth")

    def __init__(
        self,
        owner: int,
        name: str = "deque",
        tracer: Optional[Any] = None,
    ) -> None:
        self.items: _pydeque[int] = _pydeque()
        self.lock = SimLock(f"{name}[{owner}]", tracer=tracer)
        self.owner = owner
        self.pushes = 0
        self.pops = 0
        self.steals = 0
        self.max_depth = 0

    def __len__(self) -> int:
        return len(self.items)

    # The three operations; subclasses define the cost/locking discipline.
    def push(self, t: float, tid: int) -> float:
        raise NotImplementedError

    def pop(self, t: float) -> tuple[Optional[int], float]:
        raise NotImplementedError

    def steal(self, t: float) -> tuple[Optional[int], float]:
        raise NotImplementedError


class THEDeque(WorkDeque):
    """Cilk-style THE-protocol deque.

    Owner pushes/pops at the tail without locking; a thief locks the
    deque and steals the oldest task from the head.  The rare
    owner/thief conflict on a single remaining item is folded into the
    (already conservative) steal cost constant.
    """

    __slots__ = ("_costs",)

    def __init__(
        self,
        owner: int,
        costs: CostModel,
        name: str = "the",
        tracer: Optional[Any] = None,
    ) -> None:
        super().__init__(owner, name, tracer=tracer)
        self._costs = costs

    def push(self, t: float, tid: int) -> float:
        self.items.append(tid)
        self.pushes += 1
        if len(self.items) > self.max_depth:
            self.max_depth = len(self.items)
        return t + self._costs.the_push

    def pop(self, t: float) -> tuple[Optional[int], float]:
        if not self.items:
            return None, t
        tid = self.items.pop()
        self.pops += 1
        return tid, t + self._costs.the_pop

    def steal(self, t: float) -> tuple[Optional[int], float]:
        if not self.items:
            return None, t + self._costs.steal_latency
        done = self.lock.acquire_release(t, self._costs.the_steal)
        tid = self.items.popleft()
        self.steals += 1
        return tid, done


class LockedDeque(WorkDeque):
    """Lock-based deque (Intel OpenMP runtime style).

    Every operation — owner push/pop included — holds the deque lock,
    so a stream of spawns on the owner serializes against concurrent
    thieves.  This is the mechanism behind the paper's ~20% Fibonacci
    gap in favour of Cilk Plus.
    """

    __slots__ = ("_costs",)

    def __init__(
        self,
        owner: int,
        costs: CostModel,
        name: str = "locked",
        tracer: Optional[Any] = None,
    ) -> None:
        super().__init__(owner, name, tracer=tracer)
        self._costs = costs

    def push(self, t: float, tid: int) -> float:
        done = self.lock.acquire_release(t, self._costs.locked_push)
        self.items.append(tid)
        self.pushes += 1
        if len(self.items) > self.max_depth:
            self.max_depth = len(self.items)
        return done

    def pop(self, t: float) -> tuple[Optional[int], float]:
        if not self.items:
            return None, t
        done = self.lock.acquire_release(t, self._costs.locked_pop)
        tid = self.items.pop()
        self.pops += 1
        return tid, done

    def steal(self, t: float) -> tuple[Optional[int], float]:
        if not self.items:
            return None, t + self._costs.steal_latency
        done = self.lock.acquire_release(t, self._costs.locked_steal)
        tid = self.items.popleft()
        self.steals += 1
        return tid, done


def make_deque(
    kind: str, owner: int, costs: CostModel, tracer: Optional[Any] = None
) -> WorkDeque:
    """Factory: ``kind`` is ``"the"`` (Cilk) or ``"locked"`` (OpenMP).

    ``tracer`` routes the per-deque :class:`SimLock` grants into the
    observability layer.
    """
    if kind == "the":
        return THEDeque(owner, costs, tracer=tracer)
    if kind == "locked":
        return LockedDeque(owner, costs, tracer=tracer)
    raise ValueError(f"unknown deque kind {kind!r} (expected 'the' or 'locked')")
