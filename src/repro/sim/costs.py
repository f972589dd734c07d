"""Calibrated runtime-overhead constants.

Every scheduling mechanism the paper discusses carries a cost constant
here, expressed in seconds.  The defaults are order-of-magnitude figures
for the paper's 2.3 GHz Haswell-EP testbed, drawn from the microbenchmark
literature the paper cites (EPCC-style barrier/fork costs, Cilk-5 spawn
cost of a few function calls, lock-based vs. THE-protocol deque
operations).  They are deliberately exposed as one flat dataclass so that
experiments can ablate a single mechanism (see ``benchmarks/bench_ablation_*``).

Magnitude cheat-sheet (one 2.3 GHz cycle is ~0.43 ns):

========================  =========  =====================================
constant                  default    corresponds to
========================  =========  =====================================
``cilk_spawn``            20 ns      ~4 function calls (Cilk-5 paper)
``the_push`` / ``the_pop``  12 ns    lock-free tail operations
``the_steal``             900 ns     CAS + lock on conflict, cache misses
``locked_push``           50 ns      uncontended pthread-style lock
``locked_steal``          1100 ns    lock + remote cache-line transfers
``omp_task_spawn``        150 ns     task descriptor allocation + enqueue
``fork_per_step``         600 ns     per tree level of team wake-up
``barrier_per_step``      450 ns     per tree level of a combining barrier
``dynamic_dispatch``      150 ns     shared loop-counter critical section
``thread_create``         12 us      pthread_create / std::thread ctor
========================  =========  =====================================
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Any

__all__ = ["CostModel"]


@dataclass(frozen=True)
class CostModel:
    """Overhead constants (seconds) for the simulated runtime systems."""

    # -- fork/join and worksharing (OpenMP parallel / for) -------------
    fork_base: float = 1.2e-6
    """Fixed cost of entering a parallel region (master side)."""

    fork_per_step: float = 0.6e-6
    """Per tree-level cost of waking the team (x log2(nthreads))."""

    barrier_base: float = 0.8e-6
    """Fixed cost of a team barrier."""

    barrier_per_step: float = 0.45e-6
    """Per tree-level cost of a combining barrier (x log2(nthreads))."""

    static_chunk: float = 25e-9
    """Loop bookkeeping per statically-assigned chunk."""

    dynamic_dispatch: float = 150e-9
    """Hold time of the shared loop counter lock per dynamic chunk fetch."""

    reduction_per_thread: float = 60e-9
    """Per-thread cost of combining a reduction at the barrier."""

    # -- task scheduling (OpenMP tasks, lock-based deques) --------------
    omp_task_spawn: float = 150e-9
    """Creating an OpenMP task: descriptor allocation + reference counts."""

    locked_push: float = 50e-9
    locked_pop: float = 50e-9
    locked_steal: float = 1.1e-6
    """Lock-based deque operations (Intel OpenMP runtime style).  The lock
    is held for the stated duration; owners and thieves contend."""

    taskwait: float = 120e-9
    """Cost of a taskwait/sync check once dependencies are satisfied."""

    # -- Cilk Plus (THE-protocol deques, work-first) ---------------------
    cilk_spawn: float = 20e-9
    """cilk_spawn fast path: a few function calls (Cilk-5)."""

    the_push: float = 12e-9
    the_pop: float = 12e-9
    """THE-protocol owner operations: lock-free tail push/pop."""

    the_steal: float = 0.9e-6
    """Thief-side steal: lock + CAS + cache-line transfers."""

    cilk_split: float = 60e-9
    """Executing one cilk_for splitter node (range halving + 2 pushes)."""

    reducer_view: float = 0.8e-6
    """Lazily creating a reducer view after a steal."""

    reducer_merge: float = 0.35e-6
    """Merging one reducer view at a sync boundary."""

    reducer_access: float = 3e-9
    """Per-access cost of updating a reducer hyperobject inside a loop
    body (hypermap lookup on every ``+=``).  This is what makes the
    paper's cilk_for+reducer Sum ~5x slower than the alternatives."""

    # -- Intel TBB ---------------------------------------------------------
    tbb_spawn: float = 110e-9
    """task::spawn — task allocation from TBB's per-thread pools."""

    tbb_split: float = 80e-9
    """One range split by a TBB partitioner (body copy + spawn)."""

    tbb_join: float = 120e-9
    """parallel_reduce join of two sub-results."""

    pipeline_token: float = 90e-9
    """Per-stage token handoff in a TBB pipeline."""

    # -- C++11 threads/futures ------------------------------------------
    thread_create: float = 12e-6
    """std::thread construction (pthread_create), serial in the creator."""

    thread_join: float = 2.5e-6
    """std::thread::join per thread, serial in the joiner."""

    async_create: float = 9e-6
    """std::async(launch::async) — thread-backed task creation."""

    future_get: float = 0.4e-6
    """future::get synchronization once the value is ready."""

    condvar_wake: float = 1.5e-6
    """Waking a pool of sleeping threads through a condition variable
    (manual C++ thread-pool phase start)."""

    # -- Charm++-style message-driven actors ----------------------------
    charm_msg_send: float = 120e-9
    """Packing and enqueueing one entry-method message on the target
    chare's queue (shared-memory transport; a few cache-line writes)."""

    charm_msg_recv: float = 80e-9
    """Scheduler-side dequeue and delivery of one pending message."""

    charm_entry_dispatch: float = 60e-9
    """Entry-method invocation: chare lookup + virtual dispatch."""

    charm_chare_create: float = 0.6e-6
    """Constructing and registering one chare array (mainchare side)."""

    # -- HPX/ParalleX-style futures --------------------------------------
    hpx_future_create: float = 350e-9
    """``hpx::async``: future + lightweight-thread registration.  Much
    cheaper than a kernel thread (``async_create``), dearer than a Cilk
    spawn — the AMT papers' defining per-task cost."""

    hpx_future_get: float = 150e-9
    """Resuming a dataflow continuation once one awaited future is
    ready (shared-state check + value plumbing)."""

    hpx_continuation: float = 90e-9
    """Attaching/stealing one continuation onto an HPX worker."""

    # -- MPI-style message passing ----------------------------------------
    mpi_msg_overhead: float = 250e-9
    """CPU cost of posting one send/recv (descriptor + copy setup),
    charged on both endpoints."""

    mpi_latency: float = 0.8e-6
    """Transport delay of one point-to-point message between ranks
    (shared-memory eager path); delays the receiver, occupies no CPU."""

    mpi_allreduce_base: float = 1.6e-6
    """Fixed cost of a collective (allreduce/barrier) over the ranks."""

    mpi_allreduce_per_step: float = 0.7e-6
    """Per tree-level cost of a combining collective (x log2(ranks))."""

    # -- generic synchronization ------------------------------------------
    atomic_op: float = 22e-9
    """Uncontended atomic read-modify-write."""

    lock_acquire: float = 45e-9
    """Uncontended mutex acquire+release pair."""

    steal_latency: float = 150e-9
    """Thief-side victim selection before touching the victim deque."""

    wake_latency: float = 0.5e-6
    """Latency between work becoming available and an idle worker noticing."""

    def __post_init__(self) -> None:
        for name, value in self.__dict__.items():
            if not isinstance(value, (int, float)) or math.isnan(value) or value < 0:
                raise ValueError(f"cost {name!r} must be a non-negative number, got {value!r}")

    # ------------------------------------------------------------------
    def fork_cost(self, nthreads: int) -> float:
        """Cost of forking a team of ``nthreads`` (tree wake-up)."""
        if nthreads <= 1:
            return 0.0
        return self.fork_base + self.fork_per_step * math.log2(nthreads)

    def barrier_cost(self, nthreads: int) -> float:
        """Cost of a combining barrier over ``nthreads``."""
        if nthreads <= 1:
            return 0.0
        return self.barrier_base + self.barrier_per_step * math.log2(nthreads)

    def deque_ops(self, deque: str) -> tuple[float, float, float, float]:
        """Spawn, push, pop and steal cost of a ``"the"`` (Cilk THE) or
        any other (lock-protected) deque."""
        if deque == "the":
            return self.cilk_spawn, self.the_push, self.the_pop, self.the_steal
        return self.omp_task_spawn, self.locked_push, self.locked_pop, self.locked_steal

    def with_overrides(self, **overrides: Any) -> "CostModel":
        """Return a copy with some constants replaced (for ablations)."""
        return replace(self, **overrides)


#: The default calibration: the Intel stack the paper used (icc 13,
#: Intel OpenMP runtime, Cilk Plus runtime).
INTEL_COSTS = CostModel()

#: A GCC/libgomp-flavoured calibration, for the runtime-implementation
#: comparison the paper cites (Podobas et al.): heavier task
#: descriptors and team synchronization.  The defining difference —
#: libgomp's *central* task queue instead of per-worker deques — is a
#: scheduler flag (``StealingScheduler(central_queue=True)``), not a
#: constant.
GCC_COSTS = CostModel(
    omp_task_spawn=380e-9,
    locked_push=70e-9,
    locked_pop=70e-9,
    locked_steal=1.4e-6,
    fork_per_step=1.0e-6,
    barrier_per_step=0.9e-6,
)
