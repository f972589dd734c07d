"""Bare-thread execution (C++11 ``std::thread`` / ``std::async``, PThreads).

The C++11 versions in the paper do their own chunking: "we use a for
loop and manual chunking to distribute loop iterations among threads and
tasks", with a cut-off ``BASE = N / nthreads`` guarding the recursive
versions against task explosion.  The runtime itself does almost
nothing — no scheduler, no load balancing — so the model here is simple
and explicit:

- thread creation is serial in the creating thread (``pthread_create``),
- each thread runs its one chunk,
- joins (or ``future::get``) are serial in the master, in program order,
- creating more threads than the machine has hardware contexts degrades
  throughput via the machine's oversubscription model, and creating an
  unbounded number (the recursive Fibonacci without cut-off) raises
  :class:`~repro.runtime.base.ThreadExplosionError` — the paper's "system
  hangs" observation for fib(n >= 20).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.faults import fault_doc
from repro.runtime.base import ExecContext, ThreadExplosionError, cut_at_cancel
from repro.sim.task import IterSpace, TaskGraph
from repro.sim.trace import RegionResult, WorkerStats

__all__ = ["run_threadpool_loop", "run_threadpool_graph"]


def run_threadpool_loop(
    space: IterSpace,
    nthreads: int,
    ctx: ExecContext,
    *,
    mode: str = "thread",
    nchunks: Optional[int] = None,
    reduction: bool = False,
    persistent: bool = False,
    tracer=None,
    faults=None,
) -> RegionResult:
    """Execute a manually-chunked loop on bare threads.

    ``mode="thread"`` models ``std::thread`` (create + join), and
    ``mode="async"`` models ``std::async`` with ``future::get``
    (slightly cheaper creation, same structure).  ``nchunks`` defaults
    to one chunk per thread (the paper's BASE cut-off).  ``reduction``
    charges the master one combine per chunk after the joins (the
    manual thread-private-partials pattern).  ``tracer`` emits one
    chunk span per created thread (staircase starts: creation is
    serial in the master).

    ``persistent=True`` models the hand-rolled thread pool a C++
    programmer writes for *iterative* applications: threads are created
    once for the whole program (charged at program level, see
    :func:`repro.runtime.run.run_program`), and each phase pays a
    condition-variable wake plus two manual barriers instead of
    create/join.

    Under a live ``faults`` set, its error mode selects the Table III
    discipline: ``"rethrow"`` (C++11 futures — every chunk runs to
    completion, the stored exception surfaces at the serial
    ``future::get``), ``"async_cancel"`` (``pthread_cancel`` — running
    threads are terminated at the failure instant, threads not yet
    created never start), or ``"none"`` (failure goes unnoticed).  The
    fault hooks sit inline in the one serial-creation layout, so a
    handle whose faults never fire leaves every number as
    ``faults=None`` gives it.
    """
    if nthreads <= 0:
        raise ValueError("nthreads must be positive")
    if mode not in ("thread", "async"):
        raise ValueError(f"unknown threadpool mode {mode!r}")
    costs = ctx.costs
    n = nchunks if nchunks is not None else nthreads
    n = max(1, min(n, space.niter))
    if n > ctx.thread_cap:
        raise ThreadExplosionError(
            f"{n} simultaneous {mode} threads exceed the cap of {ctx.thread_cap}"
        )
    if persistent:
        create = 0.0
        finalize = 0.0
    else:
        create = costs.thread_create if mode == "thread" else costs.async_create
        finalize = costs.thread_join if mode == "thread" else costs.future_get

    edges = np.linspace(0, space.niter, n + 1).astype(np.int64)
    edges[0], edges[-1] = 0, space.niter
    work, membytes = space.chunk_costs(edges)
    # every chunk gets its own software thread: n are active
    durations = ctx.memory.durations(work, membytes, space.locality, n)

    # Serial creation: thread i starts at (i+1) * create and runs its
    # chunk, after any stall, slowed by any bandwidth window.
    starts = [(i + 1) * create for i in range(n)]
    stalls = [0.0] * n
    busy = durations.tolist()
    err = None
    err_time = 0.0
    if faults is not None:
        for i, s in enumerate(starts):
            stalls[i], slow, failure = faults.work_item(i, i, s)
            busy[i] *= slow
            if failure is not None:
                err = failure
                err_time = s + stalls[i] + busy[i]
    ends = [s + stall + b for s, stall, b in zip(starts, stalls, busy)]
    cancelled = err is not None and faults.mode == "async_cancel"
    cancel_time = err_time if cancelled else 0.0
    # pthread_cancel: uncreated threads never start, running ones stop
    created = cut_at_cancel(starts, ends, cancel_time) if cancelled else [True] * n
    # Serial join/get in program order by the master, which is free
    # after the last create.
    t_join = max((s for s, live in zip(starts, created) if live), default=0.0)
    workers = [WorkerStats() for _ in range(n)]
    for i, w in enumerate(workers):
        if not created[i]:
            continue
        t_join = max(t_join, ends[i]) + finalize
        exec_start = starts[i] + stalls[i]
        if ends[i] < exec_start + busy[i]:  # cut short by the cancel
            busy[i] = max(0.0, ends[i] - exec_start)
        w.busy = busy[i]
        w.overhead = create + finalize + stalls[i]
        w.tasks = 1
        if tracer is not None:
            if stalls[i] > 0.0:
                tracer.span(i, starts[i], exec_start, "stall", "worker_stall")
            if ends[i] >= exec_start:
                tracer.span(i, exec_start, ends[i], "chunk", space.name)
    if tracer is not None and cancelled:
        tracer.instant(0, cancel_time, "cancel")
    if reduction:
        t_join += n * costs.atomic_op
    if persistent:
        # condvar wake at phase start + two manual barriers (release the
        # workers, wait for the last one)
        t_join += costs.condvar_wake + 2 * costs.barrier_cost(n)
    meta = {
        "mode": mode,
        "nthreads_created": 0 if persistent else n,
        "persistent": persistent,
        **space.expected_meta(),
    }
    if faults is not None:
        meta["fault"] = fault_doc(
            faults.triggered, err, err_time, faults.mode, sum(w.busy for w in workers),
            cancelled=cancelled, cancel_time=cancel_time, skipped=created.count(False),
        )
    return RegionResult(time=t_join, nthreads=nthreads, workers=workers, meta=meta)


def run_threadpool_graph(
    graph: TaskGraph,
    nthreads: int,
    ctx: ExecContext,
    *,
    mode: str = "async",
    tracer=None,
    faults=None,
) -> RegionResult:
    """Execute a task DAG where every task is its own thread.

    This models the paper's recursive C++11 implementations.  If the DAG
    is larger than the thread cap the execution is declared hung
    (:class:`ThreadExplosionError`).  Otherwise the finish time is the
    maximum of the dependency critical path (with serial per-parent
    creation costs) and the machine's aggregate throughput bound under
    oversubscription.
    """
    if nthreads <= 0:
        raise ValueError("nthreads must be positive")
    if mode not in ("thread", "async"):
        raise ValueError(f"unknown threadpool mode {mode!r}")
    ntasks = len(graph)
    if ntasks == 0:
        return RegionResult(time=0.0, nthreads=nthreads, workers=[])
    if ntasks > ctx.thread_cap:
        raise ThreadExplosionError(
            f"recursive {mode} execution would create {ntasks} threads "
            f"(cap {ctx.thread_cap}); the paper reports this configuration hangs"
        )
    costs = ctx.costs
    create = costs.thread_create if mode == "thread" else costs.async_create
    finalize = costs.thread_join if mode == "thread" else costs.future_get
    machine = ctx.machine
    active = min(ntasks, machine.hw_threads * 4)
    duration = ctx.memory.memoized(active)

    # Critical path with creation costs: each task starts after its deps
    # finish plus one creation slot; children of the same parent are
    # created serially by that parent.
    finish = [0.0] * ntasks
    child_rank: dict[int, int] = {}
    err = None
    err_time = 0.0
    dep_ptr = graph.dep_ptr
    dep_idx = graph.dep_idx
    tags = graph.tag_names
    columns = zip(graph.work, graph.membytes, graph.locality, graph.tag_id)
    for tid, (work, membytes, locality, tag) in enumerate(columns):
        deps = dep_idx[dep_ptr[tid]:dep_ptr[tid + 1]]
        rank = 1
        if deps:
            # serial creation among siblings sharing the first dep
            key = deps[0]
            child_rank[key] = child_rank.get(key, 0) + 1
            rank = child_rank[key]
        start = max((finish[d] for d in deps), default=0.0) + rank * create
        dur = duration(work, membytes, locality, active)
        if faults is not None:
            stall, slow, failure = faults.work_item(tid, tid, start)
            start += stall
            dur *= slow
            if failure is not None:
                # the future stores the exception; it rethrows at the
                # blocking get, so every already-launched thread runs
                err = failure
                err_time = start + dur
        finish[tid] = start + dur + finalize
        if tracer is not None:
            # one trace row per software thread (tid); the model has no
            # hardware-context placement, so the row IS the thread
            tracer.span(tid, start, start + dur, "task", tags[tag] or f"t{tid}")
    cp = max(finish)
    throughput_bound = graph.total_work() / (machine.compute_speed(active) * active) \
        + ntasks * (create + finalize) / max(1, nthreads)
    time = max(cp, throughput_bound)
    w = WorkerStats(
        busy=graph.total_work(),
        overhead=ntasks * (create + finalize),
        tasks=ntasks,
    )
    meta = {
        "mode": mode,
        "nthreads_created": ntasks,
        # one WorkerStats sums over all created threads, so per-worker
        # wall-clock caps do not apply to it
        "aggregate_workers": True,
        **graph.expected_meta(),
    }
    if faults is not None:
        meta["fault"] = fault_doc(faults.triggered, err, err_time, faults.mode, w.busy)
    return RegionResult(
        time=time,
        nthreads=nthreads,
        workers=[w],
        meta=meta,
    )
