"""Asynchronous many-tasking executors: Charm++, HPX and MPI styles.

Three runtime families beyond the paper's shared-memory threading zoo
(ROADMAP item 4; Kulkarni & Lumsdaine's AMT comparison and Hasta &
Mutiara's message-passing-vs-threads study supply the claims the
``bench_ext_amt`` benchmark reproduces):

- **Charm++-style message-driven actors** (:func:`run_charm_loop`,
  :func:`run_charm_graph`): work is overdecomposed into chares placed
  round-robin on the PEs at creation time; every entry-method
  invocation pays a message send on the producer and a dequeue +
  dispatch on the consumer, and message deliveries appear as
  ``transfer`` spans on the consumer's PE row.  Placement is static —
  no stealing — so the per-task overhead is tiny but imbalance is
  never repaired.

- **HPX/ParalleX-style futures** (:func:`run_hpx_loop`,
  :func:`run_hpx_graph`): every task is an ``hpx::async`` future wired
  by dataflow continuations; each pays future creation, one resume per
  awaited dependency and a continuation attach.  Continuations are
  stolen by whichever worker frees up first (greedy placement), so the
  per-task overhead is larger than Charm's but imbalance amortizes.

- **MPI-style message passing** (:func:`run_mpi_loop`,
  :func:`run_mpi_graph`): the iteration space / task list is block-
  partitioned over ``p`` ranks at compile time; interior work pays no
  runtime overhead at all, but every cross-rank dependency costs a
  send/recv pair plus transport latency and every region ends in a
  log-tree collective.

All three loop executors are ordinary per-worker results (busy equals
the traced ``chunk`` spans exactly); the graph executors schedule onto
per-PE timelines but report one aggregate :class:`WorkerStats` (the
``aggregate_workers`` convention of :func:`run_threadpool_graph`),
with per-PE ``transfer``/``task`` spans on the trace.

Fault semantics (Table III extension, see :mod:`repro.faults.semantics`):

- ``msg_loss`` (Charm): message-driven execution cannot cancel; every
  chare runs, the lost/failed entry surfaces at completion detection.
- ``future_poison`` (HPX): the failed future holds the exception, its
  transitive dependents never fire (skipped); unrelated futures finish.
- ``rank_fail`` (MPI): the job aborts — running chunks are cut off at
  the failure instant, chunks not yet started are never issued.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.runtime.base import ExecContext
from repro.sim.task import IterSpace, TaskGraph
from repro.sim.trace import RegionResult, WorkerStats

__all__ = [
    "run_charm_loop",
    "run_charm_graph",
    "run_hpx_loop",
    "run_hpx_graph",
    "run_mpi_loop",
    "run_mpi_graph",
]


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------
def _loop_chunks(space: IterSpace, n: int, active: int, ctx: ExecContext,
                 work_scale: float) -> np.ndarray:
    """Roofline duration of ``n`` even chunks with ``active`` workers."""
    edges = np.linspace(0, space.niter, n + 1).astype(np.int64)
    edges[0], edges[-1] = 0, space.niter
    work, membytes = space.chunk_costs(edges)
    work = work * work_scale
    speed = ctx.machine.compute_speed(active)
    bw = ctx.machine.bandwidth_per_thread(active, space.locality)
    with np.errstate(divide="ignore", invalid="ignore"):
        mem = np.where(membytes > 0, membytes / bw, 0.0)
    return np.maximum(work / speed, mem)


def _chunk_count(requested: Optional[int], default: int, niter: int) -> int:
    n = requested if requested is not None else default
    return max(1, min(n, niter))


def _collective(costs, p: int) -> float:
    """Log-tree collective (barrier/allreduce) over ``p`` ranks."""
    if p <= 1:
        return 0.0
    return costs.mpi_allreduce_base + costs.mpi_allreduce_per_step * math.ceil(math.log2(p))


def _fault_doc(faults, err, err_time, mode: str, busy: float, *,
               cancelled: bool = False, cancel_time: float = 0.0,
               skipped: int = 0) -> dict:
    kind = "task_fail" if err is not None else (
        faults.triggered[0][0] if faults.triggered else ""
    )
    return {
        "kind": kind,
        "error": err or "",
        "mode": mode,
        "time": err_time if err is not None else 0.0,
        "failed": err is not None and mode != "none",
        "cancelled": cancelled,
        "cancel_time": cancel_time,
        "issued_after_cancel": 0,
        "skipped": skipped,
        "useful": 0.0 if err is not None else busy,
        "wasted": busy if err is not None else 0.0,
        "triggered": [[k, t] for k, t in faults.triggered],
    }


def _loop_meta(mode: str, n: int, space: IterSpace, work_scale: float) -> dict:
    return {
        "mode": mode,
        "nthreads_created": 0,  # AMT workers persist across the program
        "ntasks_created": n,
        "expected_work": space.total_work * work_scale,
        "expected_bytes": space.total_bytes,
        "expected_locality": space.locality,
    }


# ---------------------------------------------------------------------------
# Charm++-style message-driven loop
# ---------------------------------------------------------------------------
def run_charm_loop(
    space: IterSpace,
    nthreads: int,
    ctx: ExecContext,
    *,
    nchares: Optional[int] = None,
    work_scale: float = 1.0,
    reduction: bool = False,
    tracer=None,
    faults=None,
    error_mode: str = "msg_loss",
) -> RegionResult:
    """Execute a loop as a chare array on ``nthreads`` PEs.

    The mainchare creates the array (one broadcast down a send tree),
    chares land round-robin on the PEs and each runs its chunk when its
    seed message is delivered (dequeue + entry dispatch, an overhead
    ``dispatch`` span ahead of the ``chunk`` span).  ``reduction`` adds
    per-chare contributions combined up a log-tree; completion is
    detected by one message back to the mainchare.  Overdecomposition
    defaults to 4 chares per PE (the Charm++ idiom).
    """
    if nthreads <= 0:
        raise ValueError("nthreads must be positive")
    p = nthreads
    costs = ctx.costs
    n = _chunk_count(nchares, 4 * p, space.niter)
    active = min(p, n)
    durations = _loop_chunks(space, n, active, ctx, work_scale)
    recv = costs.charm_msg_recv + costs.charm_entry_dispatch
    depth = math.ceil(math.log2(p)) if p > 1 else 0
    arrival = costs.charm_chare_create + costs.charm_msg_send * (1 + depth)

    workers = [WorkerStats() for _ in range(p)]
    t_pe = [arrival] * p
    err = None
    err_time = 0.0
    for i in range(n):
        pe = i % p
        t = t_pe[pe]
        stall = 0.0
        dur = float(durations[i])
        if faults is not None:
            stall = faults.stall(pe, t)
            if tracer is not None and stall > 0.0:
                tracer.span(pe, t, t + stall, "stall", "worker_stall")
            t += stall
            dur *= faults.slow_factor(t + recv)
            if err is None:
                failure = faults.fail_task(i, t + recv)
                if failure is not None:
                    err = failure
                    err_time = t + recv + dur
        if tracer is not None:
            tracer.span(pe, t, t + recv, "dispatch", "entry_method")
            if dur > 0.0:
                tracer.span(pe, t + recv, t + recv + dur, "chunk", space.name)
        t_pe[pe] = t + recv + dur
        w = workers[pe]
        w.busy += dur
        w.overhead += recv + stall
        w.tasks += 1
    time = max(t_pe)
    if reduction:
        # per-chare local contribute + combining tree over the PEs
        time += n * costs.atomic_op
        time += depth * (costs.charm_msg_send + costs.charm_msg_recv)
    # completion detection: the last chare's done-message to the mainchare
    time += costs.charm_msg_send + costs.charm_msg_recv
    meta = _loop_meta("charm", n, space, work_scale)
    if faults is not None:
        busy = sum(w.busy for w in workers)
        meta["fault"] = _fault_doc(faults, err, err_time, error_mode, busy)
    return RegionResult(time=time, nthreads=nthreads, workers=workers, meta=meta)


# ---------------------------------------------------------------------------
# HPX-style future loop
# ---------------------------------------------------------------------------
def run_hpx_loop(
    space: IterSpace,
    nthreads: int,
    ctx: ExecContext,
    *,
    nchunks: Optional[int] = None,
    work_scale: float = 1.0,
    reduction: bool = False,
    tracer=None,
    faults=None,
    error_mode: str = "future_poison",
) -> RegionResult:
    """Execute a loop as ``hpx::async`` futures joined by ``when_all``.

    The master creates one future per chunk serially; each future's
    continuation is picked up by whichever worker frees first (greedy —
    the continuation-stealing balance), paying one attach per chunk.
    Joins (``future.get``) are serial in the master, in program order.
    """
    if nthreads <= 0:
        raise ValueError("nthreads must be positive")
    p = nthreads
    costs = ctx.costs
    n = _chunk_count(nchunks, 4 * p, space.niter)
    active = min(p, n)
    durations = _loop_chunks(space, n, active, ctx, work_scale)
    create = costs.hpx_future_create
    cont = costs.hpx_continuation

    workers = [WorkerStats() for _ in range(p)]
    free = [0.0] * p
    ends = [0.0] * n
    err = None
    err_time = 0.0
    for i in range(n):
        ready = (i + 1) * create
        w = min(range(p), key=lambda k: (max(free[k], ready), k))
        start = max(free[w], ready)
        stall = 0.0
        dur = float(durations[i])
        if faults is not None:
            stall = faults.stall(w, start)
            if tracer is not None and stall > 0.0:
                tracer.span(w, start, start + stall, "stall", "worker_stall")
            start += stall
            dur *= faults.slow_factor(start + cont)
            if err is None:
                failure = faults.fail_task(i, start + cont)
                if failure is not None:
                    err = failure
                    err_time = start + cont + dur
        if tracer is not None:
            tracer.span(w, start, start + cont, "dispatch", "continuation")
            if dur > 0.0:
                tracer.span(w, start + cont, start + cont + dur, "chunk", space.name)
        ends[i] = start + cont + dur
        free[w] = ends[i]
        ws = workers[w]
        ws.busy += dur
        ws.overhead += cont + stall
        ws.tasks += 1
    # serial future.get fold in the master, in program order
    t_join = n * create
    for i in range(n):
        t_join = max(t_join, ends[i]) + costs.hpx_future_get
    if reduction:
        t_join += n * costs.atomic_op
    meta = _loop_meta("hpx", n, space, work_scale)
    if faults is not None:
        busy = sum(w.busy for w in workers)
        meta["fault"] = _fault_doc(faults, err, err_time, error_mode, busy)
    return RegionResult(time=t_join, nthreads=nthreads, workers=workers, meta=meta)


# ---------------------------------------------------------------------------
# MPI-style rank-partitioned loop
# ---------------------------------------------------------------------------
def run_mpi_loop(
    space: IterSpace,
    nthreads: int,
    ctx: ExecContext,
    *,
    nchunks: Optional[int] = None,
    work_scale: float = 1.0,
    reduction: bool = False,
    tracer=None,
    faults=None,
    error_mode: str = "rank_fail",
) -> RegionResult:
    """Execute a loop block-partitioned over ``nthreads`` ranks (SPMD).

    Every rank owns a contiguous block of chunks and starts immediately
    (ranks persist for the program, there is no fork).  Interior chunks
    pay no runtime overhead; the region ends in a log-tree collective —
    an allreduce when ``reduction`` else a barrier.  Under ``rank_fail``
    a failure aborts the job: running chunks are cut off at the failure
    instant and unstarted chunks are never issued.
    """
    if nthreads <= 0:
        raise ValueError("nthreads must be positive")
    p = nthreads
    costs = ctx.costs
    n = _chunk_count(nchunks, p, space.niter)
    active = min(p, n)
    durations = _loop_chunks(space, n, active, ctx, work_scale)

    # pass 1: per-rank serial chunk layout with stall/slow/fail hooks
    starts = [0.0] * n
    stalls = [0.0] * n
    ends = [0.0] * n
    ranks = [i * p // n for i in range(n)]
    t_rank = [0.0] * p
    err = None
    err_time = 0.0
    for i in range(n):
        r = ranks[i]
        s = t_rank[r]
        stall = 0.0
        dur = float(durations[i])
        if faults is not None:
            stall = faults.stall(r, s)
            dur *= faults.slow_factor(s + stall)
            if err is None:
                failure = faults.fail_task(i, s + stall)
                if failure is not None:
                    err = failure
                    err_time = s + stall + dur
        starts[i] = s
        stalls[i] = stall
        ends[i] = s + stall + dur
        t_rank[r] = ends[i]
    # pass 2: a rank failure aborts the job at the failure instant
    cancelled = err is not None and error_mode == "rank_fail"
    cancel_time = err_time if cancelled else 0.0
    skipped = 0
    issued = [True] * n
    if cancelled:
        for i in range(n):
            if starts[i] >= cancel_time:
                issued[i] = False
                skipped += 1
            elif ends[i] > cancel_time:
                ends[i] = cancel_time
    workers = [WorkerStats() for _ in range(p)]
    for i in range(n):
        if not issued[i]:
            continue
        r = ranks[i]
        exec_start = starts[i] + stalls[i]
        busy = max(0.0, ends[i] - exec_start)
        w = workers[r]
        w.busy += busy
        w.overhead += stalls[i]
        w.tasks += 1
        if tracer is not None:
            if stalls[i] > 0.0:
                tracer.span(r, starts[i], exec_start, "stall", "worker_stall")
            if ends[i] > exec_start:
                tracer.span(r, exec_start, ends[i], "chunk", space.name)
    if cancelled:
        # MPI_Abort: one transport latency to tear the other ranks down
        time = cancel_time + costs.mpi_latency
        if tracer is not None:
            tracer.instant(0, cancel_time, "cancel")
    else:
        coll = _collective(costs, p)
        if reduction:
            coll += n * costs.atomic_op
        finish = max(t_rank)
        time = finish + coll
        if coll > 0.0:
            for r in range(p):
                workers[r].overhead += coll
                if tracer is not None:
                    tracer.span(r, t_rank[r], time, "barrier", "mpi_collective")
    meta = _loop_meta("mpi", n, space, work_scale)
    if faults is not None:
        busy = sum(w.busy for w in workers)
        meta["fault"] = _fault_doc(
            faults, err, err_time, error_mode, busy,
            cancelled=cancelled, cancel_time=cancel_time, skipped=skipped,
        )
    return RegionResult(time=time, nthreads=nthreads, workers=workers, meta=meta)


# ---------------------------------------------------------------------------
# task-graph executors
# ---------------------------------------------------------------------------
def _hpx_worker(pe_free: list[float], ready: float) -> int:
    """The worker an HPX continuation ready at ``ready`` runs on.

    Greedy earliest start, lowest index on ties: the worker minimizing
    ``(max(pe_free[k], ready), k)``.  When every worker is still busy at
    ``ready`` that is the first worker to free up; otherwise it is the
    first worker already idle at ``ready``.
    """
    first_free = min(pe_free)
    if first_free <= ready:
        for k, free in enumerate(pe_free):
            if free <= ready:
                return k
    return pe_free.index(first_free)


def _run_amt_graph(
    graph: TaskGraph,
    nthreads: int,
    ctx: ExecContext,
    kind: str,
    tracer,
    faults,
    error_mode: str,
) -> RegionResult:
    """List-scheduling walk of a task DAG onto ``p`` per-PE timelines.

    ``kind`` selects placement and per-task costs: ``charm`` (static
    round-robin chare placement, message costs), ``hpx`` (greedy
    earliest-start placement, future costs) or ``mpi`` (static block
    partition, cross-rank send/recv + latency).  Tasks are visited in
    topological (creation) order; each starts at the max of its PE's
    free time and its dependencies' arrival — exactly the one-message-
    at-a-time scheduler all three runtimes share.
    """
    ntasks = len(graph)
    if ntasks == 0:
        return RegionResult(time=0.0, nthreads=nthreads, workers=[])
    p = max(1, nthreads)
    costs = ctx.costs
    machine = ctx.machine
    active = min(ntasks, p)
    speed = machine.compute_speed(active)
    # ``active`` is fixed for the region, so a task's duration depends
    # only on its (work, membytes, locality)
    region_duration = ctx.memory.duration
    durations: dict[tuple[float, float, float], float] = {}

    pe_free = [0.0] * p
    finish = [0.0] * ntasks
    # records: (pe, start, pre, end, raw_work_executed, pre_kind)
    records: list[tuple[int, float, float, float, float]] = []
    stall_spans: list[tuple[int, float, float]] = []
    dead: set[int] = set()
    err = None
    err_time = 0.0
    skipped = 0
    overhead = 0.0
    stalled = 0.0

    for t in graph.tasks:
        tid = t.tid
        if err is not None and kind == "hpx" and (
            tid in dead or any(d in dead for d in t.deps)
        ):
            # poisoned dataflow: the dependent future never fires
            dead.add(tid)
            skipped += 1
            finish[tid] = err_time
            continue
        if kind == "mpi":
            pe = tid * p // ntasks
            cross_in = sum(1 for d in t.deps if d * p // ntasks != pe)
            cross_out = sum(1 for s in graph.successors[tid] if s * p // ntasks != pe)
            ready = 0.0
            for d in t.deps:
                arr = finish[d]
                if d * p // ntasks != pe:
                    arr += costs.mpi_latency
                ready = max(ready, arr)
            pre = cross_in * costs.mpi_msg_overhead
            post = cross_out * costs.mpi_msg_overhead
        elif kind == "charm":
            pe = tid % p
            ready = max((finish[d] for d in t.deps),
                        default=costs.charm_chare_create + costs.charm_msg_send)
            pre = costs.charm_msg_recv + costs.charm_entry_dispatch
            post = len(graph.successors[tid]) * costs.charm_msg_send
        else:  # hpx: continuation stolen by the earliest-free worker
            ready = max((finish[d] for d in t.deps), default=0.0)
            pre = (costs.hpx_future_create + costs.hpx_continuation
                   + len(t.deps) * costs.hpx_future_get)
            post = 0.0
            pe = _hpx_worker(pe_free, ready)
        start = max(pe_free[pe], ready)
        if speed:
            key = (t.work, t.membytes, t.locality)
            dur = durations.get(key)
            if dur is None:
                dur = durations[key] = region_duration(
                    t.work, t.membytes, t.locality, active
                )
        else:
            dur = t.work
        if faults is not None:
            stall = faults.stall(pe, start)
            if stall > 0.0:
                stall_spans.append((pe, start, start + stall))
                stalled += stall
                start += stall
            dur *= faults.slow_factor(start + pre)
            if err is None:
                failure = faults.fail_task(tid, start + pre)
                if failure is not None:
                    err = failure
                    err_time = start + pre + dur + post
                    if kind == "hpx":
                        dead.add(tid)
        end = start + pre + dur + post
        pe_free[pe] = end
        finish[tid] = end
        overhead += pre + post
        records.append((pe, start, pre, end, t.work))

    cancelled = err is not None and kind == "mpi" and error_mode == "rank_fail"
    cancel_time = err_time if cancelled else 0.0
    busy = graph.total_work()
    executed = len(records)
    if cancelled:
        # the abort cuts running tasks off and unissued tasks never start
        cut: list[tuple[int, float, float, float, float]] = []
        busy = 0.0
        executed = 0
        for pe, start, pre, end, raw in records:
            if start >= cancel_time:
                skipped += 1
                continue
            full = end - start - pre
            end = min(end, cancel_time)
            frac = max(0.0, end - start - pre) / full if full > 0 else 0.0
            busy += raw * frac
            executed += 1
            cut.append((pe, start, pre, end, raw))
        records = cut
        time = cancel_time + costs.mpi_latency
    elif kind == "hpx" and err is not None:
        busy = float(sum(raw for _, _, _, _, raw in records))
        executed = len(records)
        time = max(max(pe_free), err_time) + costs.hpx_future_get
    else:
        time = max(pe_free)
        if kind == "charm":
            # completion detection: done-message back to the mainchare
            time += costs.charm_msg_send + costs.charm_msg_recv
        elif kind == "hpx":
            time += costs.hpx_future_get
        else:
            time += _collective(costs, p)
    if faults is not None and err is not None and not cancelled and kind != "hpx":
        busy = float(sum(raw for _, _, _, _, raw in records))

    if tracer is not None:
        pre_kind = "transfer" if kind in ("charm", "mpi") else "dispatch"
        for pe, s0, s1 in stall_spans:
            tracer.span(pe, s0, s1, "stall", "worker_stall")
        for pe, start, pre, end, _raw in records:
            if pre > 0.0:
                tracer.span(pe, start, min(start + pre, end), pre_kind, "msg")
            if end > start + pre:
                tracer.span(pe, start + pre, end, "task", graph.name)
        if cancelled:
            tracer.instant(0, cancel_time, "cancel")

    w = WorkerStats(busy=busy, overhead=overhead + stalled, tasks=executed)
    byte_locs = [t.locality for t in graph.tasks if t.membytes > 0]
    meta = {
        "mode": kind,
        "nthreads_created": 0,
        "ntasks_created": executed,
        "aggregate_workers": True,
        "expected_work": graph.total_work(),
        "expected_bytes": float(sum(t.membytes for t in graph.tasks)),
        "expected_locality": max(byte_locs) if byte_locs else 1.0,
        "expected_locality_min": min(byte_locs) if byte_locs else 1.0,
        "critical_path": graph.critical_path(),
    }
    if faults is not None:
        meta["fault"] = _fault_doc(
            faults, err, err_time, error_mode, busy,
            cancelled=cancelled, cancel_time=cancel_time, skipped=skipped,
        )
    return RegionResult(time=time, nthreads=nthreads, workers=[w], meta=meta)


def run_charm_graph(
    graph: TaskGraph,
    nthreads: int,
    ctx: ExecContext,
    *,
    tracer=None,
    faults=None,
    error_mode: str = "msg_loss",
) -> RegionResult:
    """Execute a task DAG as chares exchanging entry-method messages.

    One chare per task, placed ``tid % p`` at creation — Charm++'s
    location-transparent sends are ``transfer`` spans on the consumer's
    PE.  Producers pay one send per successor; consumers one dequeue +
    dispatch per message.  No stealing: a hot PE stays hot.
    """
    return _run_amt_graph(graph, nthreads, ctx, "charm", tracer, faults, error_mode)


def run_hpx_graph(
    graph: TaskGraph,
    nthreads: int,
    ctx: ExecContext,
    *,
    tracer=None,
    faults=None,
    error_mode: str = "future_poison",
) -> RegionResult:
    """Execute a task DAG as a dataflow of ``hpx::async`` futures.

    Each task pays future creation, one resume per awaited dependency
    and a continuation attach; continuations run on whichever worker
    frees up first (continuation stealing), so load balances even under
    static skew — at the price of the highest per-task overhead of the
    AMT family.
    """
    return _run_amt_graph(graph, nthreads, ctx, "hpx", tracer, faults, error_mode)


def run_mpi_graph(
    graph: TaskGraph,
    nthreads: int,
    ctx: ExecContext,
    *,
    tracer=None,
    faults=None,
    error_mode: str = "rank_fail",
) -> RegionResult:
    """Execute a task DAG block-partitioned over MPI ranks.

    Tasks live on rank ``tid * p // ntasks``; same-rank dependencies
    are free, cross-rank ones cost a send/recv pair (CPU on both ends)
    plus transport latency, and the region ends in a log-tree
    collective.  The schedule is fully static — the message-passing
    trade-off Hasta & Mutiara measure against threads.
    """
    return _run_amt_graph(graph, nthreads, ctx, "mpi", tracer, faults, error_mode)
