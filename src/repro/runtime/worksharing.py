"""Fork-join worksharing loop executor (OpenMP ``parallel for``).

Implements the three loop schedules of the OpenMP worksharing model:

- **static** — iterations pre-divided into contiguous (or round-robin
  chunked) pieces, zero runtime coordination beyond the end barrier;
- **dynamic** — chunks handed out through a shared loop counter whose
  critical section serializes dispatch (modelled with a
  :class:`~repro.sim.engine.SimLock`);
- **guided** — dynamic with geometrically shrinking chunks
  (``remaining / 2p``, floored at a minimum), the Intel runtime default.

The executor is analytic rather than event-driven: chunk durations come
from the iteration space's block profile and the roofline memory model.
Every run walks its chunks once, in issue order, with the fault hooks
inline (:func:`_walk`).

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
    tracer:
        Optional :class:`~repro.obs.tracer.Tracer`: emits per-chunk
        execution spans, loop-counter lock waits (dynamic/guided) and,
        with ``barrier``, one ``barrier`` span per worker from its last
        chunk end to the barrier release (fork + loop time + barrier
        cost).
    faults:
        Live :class:`~repro.faults.plan.RegionFaults`; its error mode
        decides what a failure does.  ``"cancel"`` implements
        ``omp cancel for``: the failing chunk drains, every thread
        stops at its next cancellation point (the next chunk issue) and
        proceeds to the end barrier; skipped chunks are counted, never
        executed.  Any other mode runs the loop to completion (Table
        III "No": the failure goes undetected until after the join).
        A handle whose faults never fire leaves every number as
        ``faults=None`` gives it.
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
        edges = _schedule_edges(space, schedule, chunk, p)
    else:
        raise ValueError(f"unknown schedule {schedule!r}")
    work, membytes = space.chunk_costs(edges)
    durations = ctx.memory.durations(work, membytes, space.locality, p)
    meta = {"schedule": schedule, "nchunks": int(durations.size)}
    hold = costs.static_chunk if static else costs.dynamic_dispatch
    free, loop_time, lock_wait, fdoc = _walk(
        durations, static, fork_t, hold, workers,
        faults=faults, tracer=tracer, tag=space.name,
    )
    if not static:
        meta["lock_wait"] = lock_wait
    if tracer is not None and barrier:
        # each worker waits from its last chunk end to the barrier release
        bar_end = fork_t + loop_time + costs.barrier_cost(p)
        for w, t in enumerate(free):
            if t < bar_end:
                tracer.span(w, t, bar_end, "barrier", "barrier")

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
    meta.update(space.expected_meta())
    if faults is not None:
        meta["fault"] = fdoc
    return RegionResult(time=total, nthreads=p, workers=workers, meta=meta)


def _schedule_edges(
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


def _walk(
    durations: np.ndarray,
    static: bool,
    fork_t: float,
    hold: float,
    workers: list[WorkerStats],
    *,
    faults=None,
    tracer=None,
    tag: str = "chunk",
) -> tuple[list[float], float, float, Optional[dict]]:
    """Chunk-by-chunk walk of a loop, fault hooks inline.

    ``static`` runs chunk i on worker ``i % p`` after ``hold`` seconds
    of per-chunk overhead; otherwise chunks are dispatched under the
    shared loop-counter lock: each free worker grabs the next one,
    granted FIFO by request time, and holds the lock ``hold`` seconds
    plus any injected lock delay.  ``fork_t`` is the fork cost the loop
    starts after.  Returns each worker's last chunk end (region time),
    the loop time (excluding fork and barrier), the seconds spent
    waiting on the lock and, under ``faults``, the fault document.

    Every chunk issue is an ``omp cancel`` cancellation point: under
    the ``cancel`` mode no chunk is issued at or after the cancellation
    time (the failing chunk's completion), and each such skip is
    counted instead.
    """
    p = len(workers)
    # each schedule sums its times in the frame its numbers always had:
    # static from the region start, dispatch loop-local (the walk's clock
    # ``free``) shifted by ``t0`` into the region frame
    t0 = 0.0 if static else fork_t
    free = [fork_t if static else 0.0] * p
    cancel = faults is not None and faults.mode == "cancel"
    cancelled = False
    cancel_time = 0.0
    err: Optional[str] = None
    err_time = 0.0
    skipped = 0
    lock_busy = 0.0
    lock_wait = 0.0
    if not static:
        heap = [(0.0, w) for w in range(p)]
    # tolist() converts once to native floats (values unchanged) instead
    # of yielding one np.float64 per iteration of this hot loop
    for i, dur in enumerate(durations.tolist()):
        if static:
            w = i % p
            t = free[w]
        else:
            t, w = heapq.heappop(heap)
        if cancelled and t >= cancel_time:
            skipped += 1
            if not static:
                heapq.heappush(heap, (t, w))
            continue
        ws = workers[w]
        grant = t
        h = hold
        if not static:
            if lock_busy > t:
                grant = lock_busy
            if faults is not None:
                h += faults.lock_delay(t0 + grant)
            lock_busy = grant + h
            lock_wait += grant - t
            ws.overhead += (grant - t) + h
            if tracer is not None and grant > t:
                tracer.span(w, t0 + t, t0 + grant, "lock_wait", "loop_counter")
        start = t0 + grant + h
        stall = 0.0
        failure = None
        if faults is not None:
            stall, slow, failure = faults.work_item(i, w, start)
            if stall > 0.0:
                ws.overhead += stall
                if tracer is not None:
                    tracer.span(w, start, start + stall, "stall", "worker_stall")
            dur *= slow
        done = grant + h + stall + dur
        ws.busy += dur
        ws.tasks += 1
        if tracer is not None:
            tracer.span(w, start + stall, t0 + done, "chunk", tag)
        if failure is not None:
            err = failure
            err_time = t0 + done
            if cancel:
                cancelled = True
                cancel_time = done
                if tracer is not None:
                    tracer.instant(w, err_time, "cancel")
        if static:
            free[w] = done
        else:
            heapq.heappush(heap, (done, w))
    if static:
        # per-chunk overhead as count * cost, not a running sum: the
        # numbers static loops have always had
        for ws in workers:
            ws.overhead = ws.tasks * hold + ws.overhead
        loop_time = max(ws.busy + ws.overhead for ws in workers)
    else:
        for t, w in heap:
            free[w] = t
        loop_time = max(free)
    fdoc = None
    if faults is not None:
        fdoc = fault_doc(
            faults.triggered, err, err_time, faults.mode, sum(ws.busy for ws in workers),
            cancelled=cancelled, cancel_time=t0 + cancel_time if cancelled else 0.0,
            skipped=skipped,
        )
    return [t0 + t for t in free], loop_time, lock_wait, fdoc
