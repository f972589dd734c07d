"""Program execution: dispatch regions to their executors.

A :class:`~repro.sim.task.Program` is a sequence of regions, each
annotated (by the programming-model layer) with an executor name and
parameters.  :func:`run_program` executes the regions in order on a
given thread count and returns a :class:`~repro.sim.trace.SimResult`.

Symbolic region entry/exit markers (``entry="omp_parallel"``,
``exit="barrier"``) are resolved to costs here because they depend on
the thread count.
"""

from __future__ import annotations

from typing import Union

from repro.faults import fault_doc
from repro.perf.gcpause import paused_gc
from repro.runtime.base import ExecContext
from repro.runtime.threadpool import run_threadpool_graph, run_threadpool_loop
from repro.runtime.worksharing import run_worksharing_loop
from repro.runtime.workstealing import run_stealing_graph, run_stealing_loop
from repro.sim.task import LoopRegion, Program, SerialRegion, TaskRegion
from repro.sim.trace import RegionResult, SimResult, WorkerStats

__all__ = ["execute_region", "run_program"]


def _entry_cost(marker: str, p: int, ctx: ExecContext) -> float:
    if marker in ("none", ""):
        return 0.0
    if marker == "omp_parallel":
        return ctx.costs.fork_cost(p)
    if marker == "cilk":
        # Cilk workers persist across the program; entering a parallel
        # section costs one spawn.
        return ctx.costs.cilk_spawn
    raise ValueError(f"unknown entry marker {marker!r}")


def _exit_cost(marker: str, p: int, ctx: ExecContext) -> float:
    if marker in ("none", ""):
        return 0.0
    if marker == "barrier":
        return ctx.costs.barrier_cost(p)
    if marker == "taskwait":
        return ctx.costs.taskwait
    if marker == "sync":
        return ctx.costs.taskwait
    if marker == "taskwait+barrier":
        return ctx.costs.taskwait + ctx.costs.barrier_cost(p)
    raise ValueError(f"unknown exit marker {marker!r}")


def execute_region(
    region: Union[SerialRegion, LoopRegion, TaskRegion],
    nthreads: int,
    ctx: ExecContext,
    tracer=None,
    faults=None,
) -> RegionResult:
    """Execute one region at ``nthreads`` and return its result.

    ``tracer`` (a :class:`~repro.obs.tracer.Tracer`) is forwarded to
    every executor; each emits its spans at region-local times shifted
    by the tracer's current ``offset``, so a tracer whose offset is
    advanced between regions (see :func:`run_program`) accumulates one
    program-absolute timeline.

    ``faults`` is a live :class:`~repro.faults.plan.RegionFaults` for
    this region attempt, carrying the Table III discipline to run it
    under (or ``None``, the default, in which case every executor takes
    its original fault-free path).
    """
    if isinstance(region, SerialRegion):
        dur = ctx.duration(region.work, region.membytes, region.locality, 1)
        meta = {
            "serial": True,
            "expected_work": region.work,
            "expected_bytes": region.membytes,
            "expected_locality": region.locality,
        }
        stall = 0.0
        if faults is not None:
            stall, slow, err = faults.work_item(0, 0, 0.0)
            dur *= slow
            meta["fault"] = fault_doc(faults.triggered, err, stall + dur, faults.mode, dur)
        w = WorkerStats(busy=dur, overhead=stall, tasks=1)
        if tracer is not None and stall > 0:
            tracer.span(0, 0.0, stall, "stall", "worker_stall")
        if tracer is not None and dur > 0:
            tracer.span(0, stall, stall + dur, "serial", region.name)
        return RegionResult(time=stall + dur, nthreads=1, workers=[w], meta=meta)

    if isinstance(region, LoopRegion):
        params = dict(region.params)
        executor = region.executor
        if executor == "worksharing":
            return run_worksharing_loop(
                region.space, nthreads, ctx, tracer=tracer, faults=faults, **params
            )
        if executor == "stealing_loop":
            entry = _entry_cost(params.pop("entry", "none"), nthreads, ctx)
            exit_marker = params.pop("exit", None)
            exit_c = (
                _exit_cost(exit_marker, nthreads, ctx) if exit_marker is not None else None
            )
            return run_stealing_loop(
                region.space, nthreads, ctx, entry_cost=entry, exit_cost=exit_c,
                tracer=tracer, faults=faults, **params
            )
        if executor == "threadpool":
            return run_threadpool_loop(
                region.space, nthreads, ctx, tracer=tracer, faults=faults, **params
            )
        if executor == "offload":
            from repro.runtime.offload import run_offload_loop

            return run_offload_loop(
                region.space, nthreads, ctx, tracer=tracer, faults=faults, **params
            )
        if executor in ("charm_loop", "hpx_loop", "mpi_loop"):
            from repro.runtime import amt

            run_loop = {
                "charm_loop": amt.run_charm_loop,
                "hpx_loop": amt.run_hpx_loop,
                "mpi_loop": amt.run_mpi_loop,
            }[executor]
            return run_loop(
                region.space, nthreads, ctx, tracer=tracer, faults=faults, **params
            )
        raise ValueError(f"unknown loop executor {executor!r}")

    if isinstance(region, TaskRegion):
        params = dict(region.params)
        executor = region.executor
        graph = region.graph_for(nthreads)
        if executor == "stealing":
            entry = _entry_cost(params.pop("entry", "none"), nthreads, ctx)
            exit_c = _exit_cost(params.pop("exit", "none"), nthreads, ctx)
            return run_stealing_graph(
                graph, nthreads, ctx, entry_cost=entry, exit_cost=exit_c,
                tracer=tracer, faults=faults, **params
            )
        if executor == "threadpool_graph":
            return run_threadpool_graph(
                graph, nthreads, ctx, tracer=tracer, faults=faults, **params
            )
        if executor in ("charm_graph", "hpx_graph", "mpi_graph"):
            from repro.runtime import amt

            run_graph = {
                "charm_graph": amt.run_charm_graph,
                "hpx_graph": amt.run_hpx_graph,
                "mpi_graph": amt.run_mpi_graph,
            }[executor]
            return run_graph(
                graph, nthreads, ctx, tracer=tracer, faults=faults, **params
            )
        raise ValueError(f"unknown task executor {executor!r}")

    raise TypeError(f"unknown region type {type(region).__name__}")


def _apply_timeout(res: RegionResult, fdoc, timeout: float, mode: str) -> dict:
    """Mark a region attempt failed because it exceeded its time budget.

    An attempt that already failed keeps its original cause; an attempt
    that merely ran long has its busy time reclassified as wasted.
    """
    if fdoc is None:
        fdoc = res.meta["fault"] = fault_doc((), None, 0.0, mode, res.total_busy)
    if not fdoc.get("failed"):
        fdoc["failed"] = True
        fdoc["kind"] = "timeout"
        fdoc["error"] = f"region exceeded timeout {timeout:g}s"
        fdoc["time"] = res.time
        fdoc["wasted"] = fdoc.get("wasted", 0.0) + fdoc.get("useful", 0.0)
        fdoc["useful"] = 0.0
    return fdoc


@paused_gc
def run_program(
    program: Program,
    nthreads: int,
    ctx: ExecContext,
    version: str = "",
    validate: bool = False,
    trace=None,
    faults=None,
    policy=None,
) -> SimResult:
    """Execute all regions of ``program`` in order at ``nthreads``.

    ``validate=True`` runs the cheap physical-plausibility audit from
    :mod:`repro.validate` on the finished result and on the program's
    task graphs, and raises
    :class:`~repro.validate.invariants.SimulationInvariantError` if any
    invariant is violated (interval overlap, work non-conservation,
    makespan below its lower bounds, a graph whose supplied critical
    path is not its own, ...).

    ``trace`` enables the observability layer: pass a
    :class:`~repro.obs.tracer.Tracer` (or ``True`` to have one created)
    and every region's executor emits per-worker spans onto one
    program-absolute timeline; the tracer is attached to the returned
    :class:`SimResult` as ``result.trace``.  With ``trace=None`` (the
    default) no per-event state exists anywhere — the executors see
    ``tracer=None`` and skip every emission with a single branch.

    ``faults`` (a :class:`~repro.faults.plan.FaultPlan`, a spec string,
    or a dict/list form) injects deterministic faults; each region runs
    under its model's Table III error-handling mode.  ``policy`` (a
    :class:`~repro.faults.policy.Policy` or dict) governs recovery: a
    failed region is retried up to ``max_retries`` times with
    exponential backoff charged as simulated recovery time, and a
    ``timeout`` bounds any attempt's simulated duration.  A region that
    fails with retries exhausted raises
    :class:`~repro.faults.policy.RegionFailedError` unless the policy
    says ``on_failure="continue"`` (graceful degradation: the program
    keeps going, the failure stays visible in the accounting).  Every
    attempt — failed or not — appears in ``result.regions`` with a
    ``meta["fault"]`` document, so useful/wasted/recovery work is fully
    reconstructible.
    """
    if nthreads <= 0:
        raise ValueError("nthreads must be positive")
    tracer = trace
    if tracer is True:
        from repro.obs.tracer import Tracer

        tracer = Tracer()
    elif tracer is False:
        # by identity: an empty Tracer is falsy too
        tracer = None
    plan = pol = None
    if faults is not None or policy is not None:
        from repro.faults.plan import FaultPlan
        from repro.faults.policy import Policy
        from repro.faults.semantics import error_mode

        plan = FaultPlan.coerce(faults)
        pol = Policy.coerce(policy)
    regions = []
    total = 0.0
    if program.meta.get("pool_setup"):
        # one-time hand-rolled C++ thread-pool creation/teardown
        total += nthreads * (ctx.costs.thread_create + ctx.costs.thread_join)
    model = version or program.meta.get("version", "")
    for index, region in enumerate(program):
        if plan is None and pol is None:
            if tracer is not None:
                # region-local span times become program-absolute
                tracer.begin_region(region.name, offset=total)
            res = execute_region(region, nthreads, ctx, tracer=tracer)
            regions.append(res)
            total += res.time
            continue
        mode = error_mode(model, getattr(region, "executor", ""))
        attempt = 0
        while True:
            live = plan.for_region(region.name, index, attempt, mode) if plan else None
            if tracer is not None:
                label = region.name if attempt == 0 else f"{region.name}#retry{attempt}"
                tracer.begin_region(label, offset=total)
            res = execute_region(region, nthreads, ctx, tracer=tracer, faults=live)
            fdoc = res.meta.get("fault")
            if pol is not None and pol.timeout is not None and res.time > pol.timeout:
                fdoc = _apply_timeout(res, fdoc, pol.timeout, mode)
                if tracer is not None:
                    tracer.instant(0, res.time, "timeout")
            res.meta["region_index"] = index
            if fdoc is not None:
                fdoc["attempt"] = attempt
                fdoc.setdefault("recovery", 0.0)
            regions.append(res)
            total += res.time
            if fdoc is None or not fdoc.get("failed"):
                break
            if pol is not None and attempt < pol.max_retries:
                delay = pol.retry_delay(attempt)
                fdoc["recovery"] = delay
                if tracer is not None:
                    tracer.instant(0, res.time, "retry")
                total += delay
                attempt += 1
                continue
            if pol is None or pol.on_failure == "raise":
                from repro.faults.policy import RegionFailedError

                raise RegionFailedError(
                    region.name, fdoc.get("error", ""), attempt + 1
                )
            break  # graceful degradation: carry on with the next region
    result = SimResult(
        program=program.name,
        version=version or program.meta.get("version", ""),
        nthreads=nthreads,
        time=total,
        regions=regions,
        trace=tracer,
    )
    if validate:
        # imported lazily: repro.validate depends on the runtime layer
        from repro.validate.invariants import check_graphs, check_result

        rep = check_graphs(program, nthreads)
        check_result(result, ctx=ctx, report=rep).raise_if_failed()
    return result
