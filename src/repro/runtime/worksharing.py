"""Fork-join worksharing loop executor (OpenMP ``parallel for``).

Implements the three loop schedules of the OpenMP worksharing model:

- **static** — iterations pre-divided into contiguous (or round-robin
  chunked) pieces, zero runtime coordination beyond the end barrier;
- **dynamic** — chunks handed out through a shared loop counter whose
  critical section serializes dispatch (modelled with a
  :class:`~repro.sim.engine.SimLock`);
- **guided** — dynamic with geometrically shrinking chunks
  (``remaining / 2p``, floored at a minimum), the Intel runtime default.

The executor is analytic/vectorized rather than event-driven: chunk
durations come from the iteration space's block profile and the roofline
memory model, per-thread times are reduced with numpy, and only the
dynamic/guided dispatch loop walks chunks one by one (they are few).

This is the runtime the paper credits with low overhead for data
parallelism: "worksharing mostly shows better performance for data
parallelism".
"""

from __future__ import annotations

import heapq
from typing import Optional

import numpy as np

from repro.faults import fault_doc
from repro.runtime.base import ExecContext
from repro.sim.task import IterSpace
from repro.sim.trace import RegionResult, WorkerStats

__all__ = ["run_worksharing_loop", "chunk_edges"]

_MAX_DISPATCH_CHUNKS = 2_000_000


def chunk_edges(niter: int, chunk: int) -> np.ndarray:
    """Edges of fixed-size chunks covering ``[0, niter)``."""
    if chunk <= 0:
        raise ValueError("chunk size must be positive")
    edges = np.arange(0, niter + chunk, chunk, dtype=np.int64)
    edges[-1] = niter
    if edges.size >= 2 and edges[-2] == niter:
        edges = edges[:-1]
    return edges


def run_worksharing_loop(
    space: IterSpace,
    nthreads: int,
    ctx: ExecContext,
    *,
    schedule: str = "static",
    chunk: Optional[int] = None,
    reduction: bool = False,
    fork: bool = True,
    barrier: bool = True,
    work_scale: float = 1.0,
    tracer=None,
    faults=None,
) -> RegionResult:
    """Execute one worksharing loop region and return its timing.

    Parameters
    ----------
    schedule:
        ``"static"``, ``"dynamic"`` or ``"guided"``.
    chunk:
        Chunk size in iterations.  ``None`` means: one contiguous piece
        per thread for static; ``max(1, niter // (32 * nthreads))`` for
        dynamic; the minimum chunk for guided.
    reduction:
        Charge a per-thread reduction combine at the barrier (OpenMP
        ``reduction`` clause: thread-private partials merged serially).
    fork, barrier:
        Charge the parallel-region fork / end barrier.  Disabled when a
        model fuses several loops inside one parallel region (``nowait``).
    work_scale:
        Multiplier on compute work (models codegen differences).
    tracer:
        Optional :class:`~repro.obs.tracer.Tracer`: emits per-chunk
        execution spans, loop-counter lock waits (dynamic/guided) and
        end-barrier waiting spans on each worker's timeline.
    faults:
        Live :class:`~repro.faults.plan.RegionFaults`; its error mode
        decides what a failure does.  ``"cancel"`` implements
        ``omp cancel for``: the failing chunk drains, every thread
        stops at its next cancellation point (the next chunk issue) and
        proceeds to the end barrier; skipped chunks are counted, never
        executed.  Any other mode runs the loop to completion (Table
        III "No": the failure goes undetected until after the join).
        With ``faults=None`` (the default) the fast vectorized paths
        below are taken and the result is bit-identical to earlier
        releases.
    """
    if nthreads <= 0:
        raise ValueError("nthreads must be positive")
    costs = ctx.costs
    p = nthreads
    workers = [WorkerStats() for _ in range(p)]
    fork_t = costs.fork_cost(p) if fork else 0.0

    static = schedule == "static"
    if static:
        if chunk is None:
            edges = np.linspace(0, space.niter, p + 1).astype(np.int64)
            edges[0], edges[-1] = 0, space.niter
        else:
            edges = chunk_edges(space.niter, chunk)
    elif schedule in ("dynamic", "guided"):
        edges = _dispatch_edges(space, schedule, chunk, p)
    else:
        raise ValueError(f"unknown schedule {schedule!r}")
    work, membytes = space.chunk_costs(edges)
    durations = ctx.memory.durations(work * work_scale, membytes, space.locality, p)
    # static: chunk i runs on thread i % p (round-robin for a chunk clause)
    owner = np.arange(durations.size) % p if static else None
    meta = {"schedule": schedule, "nchunks": int(durations.size)}

    if faults is not None:
        loop_time, lock_wait, fdoc = _faulted_walk(
            durations, owner, p,
            0.0 if static else costs.dynamic_dispatch,
            costs.static_chunk if static else 0.0, workers,
            faults=faults, tracer=tracer, t0=fork_t,
            tag=space.name,
        )
        if not static:
            meta["lock_wait"] = lock_wait
        if tracer is not None and barrier:
            bar_end = fork_t + loop_time + costs.barrier_cost(p)
            for w in range(p):
                tracer.span(w, fork_t + loop_time, bar_end, "barrier", "barrier")
    elif static:
        busy = np.bincount(owner, weights=durations, minlength=p)
        counts = np.bincount(owner, minlength=p)
        overhead = counts * costs.static_chunk
        thread_time = busy + overhead
        loop_time = float(thread_time.max()) if thread_time.size else 0.0
        for i in range(p):
            workers[i].busy = float(busy[i])
            workers[i].overhead = float(overhead[i])
            workers[i].tasks = int(counts[i])
        if tracer is not None:
            # chunks run back-to-back per worker after the fork; the gap
            # to the end barrier is the imbalance the timeline shows
            cursor = [fork_t] * p
            for own, dur in zip(owner, durations):
                own = int(own)
                s = cursor[own] + costs.static_chunk
                e = s + float(dur)
                tracer.span(own, s, e, "chunk", space.name)
                cursor[own] = e
            if barrier:
                bar_end = fork_t + loop_time + costs.barrier_cost(p)
                for w in range(p):
                    if cursor[w] < bar_end:
                        tracer.span(w, cursor[w], bar_end, "barrier", "barrier")
    else:
        loop_time, meta["lock_wait"] = _dispatch(
            durations, p, costs.dynamic_dispatch, workers,
            tracer=tracer, t0=fork_t, tag=space.name,
        )

    total = loop_time
    if fork:
        total += costs.fork_cost(p)
    if barrier:
        total += costs.barrier_cost(p)
    if reduction:
        total += p * costs.reduction_per_thread
        for w in workers:
            w.overhead += costs.reduction_per_thread
    meta["loop_time"] = loop_time
    meta.update(space.expected_meta(work_scale))
    if faults is not None:
        meta["fault"] = fdoc
    return RegionResult(time=total, nthreads=p, workers=workers, meta=meta)


def _dispatch_edges(
    space: IterSpace, schedule: str, chunk: Optional[int], p: int
) -> np.ndarray:
    """Chunk edges for the dynamic/guided dispatch schedules."""
    if schedule == "dynamic":
        csize = chunk if chunk is not None else max(1, space.niter // (32 * p))
        edges = chunk_edges(space.niter, csize)
    else:
        cmin = chunk if chunk is not None else max(1, space.niter // (64 * p))
        sizes = []
        remaining = space.niter
        while remaining > 0:
            c = max(cmin, remaining // (2 * p))
            c = min(c, remaining)
            sizes.append(c)
            remaining -= c
        edges = np.concatenate(([0], np.cumsum(sizes))).astype(np.int64)
    nchunks = edges.size - 1
    if nchunks > _MAX_DISPATCH_CHUNKS:
        raise ValueError(
            f"{schedule} schedule would dispatch {nchunks} chunks; "
            f"raise the chunk size (cap {_MAX_DISPATCH_CHUNKS})"
        )
    return edges


def _faulted_walk(
    durations: np.ndarray,
    owner: Optional[np.ndarray],
    p: int,
    dispatch_cost: float,
    per_chunk_overhead: float,
    workers: list[WorkerStats],
    *,
    faults,
    tracer=None,
    t0: float = 0.0,
    tag: str = "chunk",
) -> tuple[float, float, dict]:
    """Chunk-by-chunk walk of any schedule with fault hooks live.

    ``owner`` selects static assignment (chunk i belongs to
    ``owner[i]``); ``owner=None`` selects lock-serialized dynamic
    dispatch (free worker grabs the next chunk).  Every chunk issue is
    an ``omp cancel`` cancellation point: under the ``cancel`` mode no
    chunk is issued at or after the cancellation time (the failing
    chunk's completion), and each such skip is counted instead.  All
    times are region-local (``t0`` = after the fork), which is also the
    frame fault trigger times are expressed in.
    """
    cancel = faults.mode == "cancel"
    cancelled = False
    cancel_time = 0.0
    err: Optional[str] = None
    err_time = 0.0
    skipped = 0
    lock_busy = t0
    lock_wait = 0.0
    finish = t0
    if owner is None:
        heap = [(t0, i) for i in range(p)]
        heapq.heapify(heap)
        cursor = None
    else:
        heap = None
        cursor = [t0] * p
    for i in range(durations.size):
        dur = float(durations[i])
        if owner is None:
            t, w = heapq.heappop(heap)
        else:
            w = int(owner[i])
            t = cursor[w]
        # cancellation point: checked at every chunk issue
        if cancelled and t >= cancel_time:
            skipped += 1
            if owner is None:
                heapq.heappush(heap, (t, w))
            continue
        if owner is None:
            grant = t if t >= lock_busy else lock_busy
            hold = dispatch_cost + faults.lock_delay(grant)
            lock_busy = grant + hold
            lock_wait += grant - t
            workers[w].overhead += (grant - t) + hold
            if tracer is not None and grant > t:
                tracer.span(w, t, grant, "lock_wait", "loop_counter")
            s0 = grant + hold
        else:
            workers[w].overhead += per_chunk_overhead
            s0 = t + per_chunk_overhead
        stall, slow, failure = faults.work_item(i, w, s0)
        if stall > 0.0:
            workers[w].overhead += stall
            if tracer is not None:
                tracer.span(w, s0, s0 + stall, "stall", "worker_stall")
            s0 += stall
        dur *= slow
        done = s0 + dur
        workers[w].busy += dur
        workers[w].tasks += 1
        if tracer is not None:
            tracer.span(w, s0, done, "chunk", tag)
        if failure is not None:
            err = failure
            err_time = done
            if cancel:
                cancelled = True
                cancel_time = done
                if tracer is not None:
                    tracer.instant(w, done, "cancel")
        if done > finish:
            finish = done
        if owner is None:
            heapq.heappush(heap, (done, w))
        else:
            cursor[w] = done
    fdoc = fault_doc(
        faults.triggered, err, err_time, faults.mode, sum(w.busy for w in workers),
        cancelled=cancelled, cancel_time=cancel_time, skipped=skipped,
    )
    return finish - t0, lock_wait, fdoc


def _dispatch(
    durations: np.ndarray,
    p: int,
    dispatch_cost: float,
    workers: list[WorkerStats],
    *,
    tracer=None,
    t0: float = 0.0,
    tag: str = "chunk",
) -> tuple[float, float]:
    """Greedy simulation of lock-serialized chunk dispatch.

    Each free thread grabs the next chunk under the shared loop-counter
    lock; the lock grant order is FIFO by request time, which is exactly
    how the guided/dynamic critical section behaves.  Returns the loop
    finish time and the total seconds spent waiting on the loop-counter
    lock; with ``tracer`` it also emits per-chunk execution spans and
    lock-wait spans at ``t0`` + loop-local times.
    """
    heap = [(0.0, i) for i in range(p)]
    heapq.heapify(heap)
    lock_busy = 0.0
    finish = 0.0
    lock_wait = 0.0
    # tolist() converts once to native floats (values unchanged) instead
    # of yielding one np.float64 per iteration of this hot loop
    for dur in durations.tolist():
        t, w = heapq.heappop(heap)
        grant = t if t >= lock_busy else lock_busy
        lock_busy = grant + dispatch_cost
        done = grant + dispatch_cost + dur
        workers[w].busy += dur
        workers[w].overhead += (grant - t) + dispatch_cost
        workers[w].tasks += 1
        lock_wait += grant - t
        if tracer is not None:
            if grant > t:
                tracer.span(w, t0 + t, t0 + grant, "lock_wait", "loop_counter")
            tracer.span(w, t0 + grant + dispatch_cost, t0 + done, "chunk", tag)
        if done > finish:
            finish = done
        heapq.heappush(heap, (done, w))
    return finish, lock_wait
