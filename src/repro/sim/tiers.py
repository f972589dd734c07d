"""Fidelity: closed-form tier-0 estimates beside the simulation.

The reproduction has two fidelities:

- **simulate** (tier 2, the reference): the discrete-event simulation —
  every steal, lock grant and chunk dispatch is an event.  This is what
  the validators, tracers and golden tests pin.
- **estimate** (tier 0, this module): no events at all.  Makespan is
  predicted from closed-form terms — the iteration space's block
  profile against the roofline memory model, Amdahl/greedy-scheduling
  bounds (``max(T1/p, T_inf)``), and the per-model overhead constants
  of :mod:`repro.sim.costs` (fork, barrier, dispatch, spawn, steal).
  The result carries an **error bound** calibrated once against traced
  tier-2 runs (:func:`calibrate`).

Tier 0 trades exactness for cost: a cell that takes seconds of
event-driven simulation is estimated in well under a millisecond
(``benchmarks/bench_engine_tiers.py`` measures the ratio).  Executors
that are already analytic in the reference runtime (serial regions,
static worksharing, thread pools) are *delegated*, not re-modelled:
their tier-0 estimate equals the tier-2 result exactly and their error
bound is zero.

Calibration groups observations by estimator kind.  Each group's scale
is the log-midrange of observed ``t2 / t0_raw`` ratios and its bound
the half-range plus margin.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional

import numpy as np

from repro.perf.gcpause import paused_gc
from repro.perf.spans import span as _perf_span
from repro.sim.task import IterSpace, LoopRegion, Program, SerialRegion, TaskRegion
from repro.sim.trace import RegionResult, SimResult, WorkerStats

__all__ = [
    "TIER_ANALYTIC",
    "TIER_REFERENCE",
    "Tier0Result",
    "Calibration",
    "DEFAULT_CALIBRATION",
    "estimate_program",
    "estimate_region",
    "calibrate",
]

TIER_ANALYTIC = 0
TIER_REFERENCE = 2


@dataclass
class Tier0Result(SimResult):
    """A :class:`SimResult`-compatible analytic estimate.

    ``error_bound`` is the calibrated relative error bound: the tier-2
    time is expected within ``time * (1 ± error_bound)`` (a time-weighted
    combination of the per-region bounds, which are exact for delegated
    regions and calibrated for modelled ones).
    """

    error_bound: float = 0.0


# ---------------------------------------------------------------------------
# Calibration
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Calibration:
    """Per-estimator scale factors and error bounds from tier-2 runs,
    keyed by estimator kind (``"steal_cilkfor"``).  A kind without an
    entry gets the defaults (scale 1.0, ``fallback_bound``).
    """

    scales: Mapping[str, float] = field(default_factory=dict)
    bounds: Mapping[str, float] = field(default_factory=dict)
    fallback_bound: float = 0.5

    def scale(self, kind: str) -> float:
        return self.scales.get(kind, 1.0)

    def bound(self, kind: str) -> float:
        return self.bounds.get(kind, self.fallback_bound)


# ---------------------------------------------------------------------------
# Region estimators
# ---------------------------------------------------------------------------
def _aggregate_result(
    time: float, p: int, busy: float, overhead: float, tasks: int
) -> RegionResult:
    w = WorkerStats(busy=busy, overhead=overhead, tasks=tasks)
    return RegionResult(time=time, nthreads=p, workers=[w], meta={"aggregate_workers": True})


def _ws_dispatch_estimate(space: IterSpace, p: int, ctx, params: dict) -> RegionResult:
    """Closed form for dynamic/guided worksharing dispatch.

    The reference executor walks chunks through a lock-serialized
    dispatch heap.  Closed form: the loop is either throughput-bound
    (total duration plus dispatch shared by ``p`` threads) or
    lock-bound (every dispatch serializes through the loop counter),
    plus a tail term of the largest chunk.
    """
    from repro.runtime.worksharing import _schedule_edges

    costs = ctx.costs
    schedule = params.get("schedule", "static")
    edges = _schedule_edges(space, schedule, params.get("chunk"), p)
    work, membytes = space.chunk_costs(edges)
    durations = ctx.memory.durations(
        work * params.get("work_scale", 1.0), membytes, space.locality, p
    )
    n = int(durations.size)
    total_dur = float(durations.sum())
    dmax = float(durations.max()) if n else 0.0
    c = costs.dynamic_dispatch
    if p <= 1:
        loop = total_dur + n * c
    else:
        loop = max(total_dur / p + n * c / p, n * c) + dmax * (p - 1) / p
    time = loop
    if params.get("fork", True):
        time += costs.fork_cost(p)
    if params.get("barrier", True):
        time += costs.barrier_cost(p)
    if params.get("reduction", False):
        time += p * costs.reduction_per_thread
    return _aggregate_result(time, p, busy=total_dur, overhead=n * c, tasks=n)


def _cilk_leaf_edges(niter: int, grainsize: int) -> np.ndarray:
    """Sorted leaf boundaries of the halving recursion.

    The recursion partitions ``[0, niter)`` contiguously, so the sorted
    leaf ``lo`` values plus ``niter`` form a consecutive edge array
    usable with :meth:`IterSpace.chunk_costs`.  One numpy pass per
    recursion level: ranges of at most ``grainsize`` iterations are
    leaves, the rest split at ``(lo + hi) // 2``.
    """
    los = []
    lo = np.zeros(1, dtype=np.int64)
    hi = np.full(1, niter, dtype=np.int64)
    while lo.size:
        leaf = hi - lo <= grainsize
        los.append(lo[leaf])
        lo, hi = lo[~leaf], hi[~leaf]
        mid = (lo + hi) // 2
        lo, hi = np.concatenate((lo, mid)), np.concatenate((mid, hi))
    edges = np.sort(np.concatenate(los))
    return np.append(edges, niter).astype(np.float64)


def _steal_cilkfor_estimate(
    space: IterSpace, p: int, ctx, params: dict, gsize: int, penalty: float
) -> RegionResult:
    """Closed form for the ``cilk_for`` splitter tree under work stealing,
    over the shape :func:`~repro.runtime.workstealing.loop_shape` gives."""
    from repro.runtime.workstealing import cilk_for_tasks

    costs = ctx.costs
    work_scale = params.get("work_scale", 1.0)
    ntasks = cilk_for_tasks(space.niter, gsize)
    leaves = (ntasks + 1) // 2
    # no more workers can be concurrently busy than there are leaves
    active = min(p, leaves) if p > 1 else 1
    memory = ctx.memory
    by_block = leaves > 1 << 17  # pathological grainsize: block-profile approximation
    if by_block:
        work, membytes = np.diff(space._cum_work), np.diff(space._cum_bytes)
    else:
        work, membytes = space.chunk_costs(_cilk_leaf_edges(space.niter, gsize))
    dur = memory.durations(work * work_scale, membytes * penalty, space.locality, active)
    busy = float(dur.sum())
    leaf_max = float(dur.max())
    if by_block:
        iters_per_block = space.niter / space.nblocks
        leaf_max = leaf_max / iters_per_block * min(gsize, space.niter)
    splits = ntasks - leaves
    split_dur = memory.duration(costs.cilk_split, active=active)
    spawn, push, pop, steal = costs.deque_ops(params.get("deque", "the"))
    per_task = spawn + push + pop
    t1 = busy + splits * split_dur
    overhead = ntasks * per_task
    if p <= 1:
        time = t1 + overhead
    else:
        # critical path: subtree distribution is a chain of splits each
        # handed to a thief (split + spawn + steal round-trip per level),
        # ending in the worst leaf chunk
        depth = max(1, math.ceil(math.log2(leaves))) if leaves > 1 else 0
        steals = min(p * max(1, depth), leaves)
        tinf = costs.wake_latency + depth * (
            split_dur + per_task + steal + costs.steal_latency
        )
        tinf += leaf_max
        time = max((t1 + overhead + steals * (steal + costs.steal_latency)) / p, tinf)
        if params.get("reducer", False):
            # one view per steal on the thief, all views merged serially
            # at the sync
            time += steals * costs.reducer_merge + steals * costs.reducer_view / p
    return _aggregate_result(time, p, busy=t1, overhead=overhead, tasks=ntasks)


def _steal_flat_estimate(
    space: IterSpace, p: int, ctx, params: dict, nck: int, penalty: float
) -> RegionResult:
    """Closed form for master-spawned flat chunk tasks (``omp task``
    loops), over the shape :func:`~repro.runtime.workstealing.loop_shape`
    gives (a flat loop's ``penalty`` is 1.0)."""
    costs = ctx.costs
    work_scale = params.get("work_scale", 1.0)
    pto = params.get("per_task_overhead", 0.0)
    deque = params.get("deque", "the")
    spawn, push, pop, steal = costs.deque_ops(deque)
    # no more workers can be concurrently busy than there are chunks
    active = min(p, nck) if p > 1 else 1
    edges = (np.arange(nck + 1, dtype=np.int64) * space.niter) // nck
    work, membytes = space.chunk_costs(edges.astype(np.float64))
    chunk_dur = ctx.memory.durations(
        work * work_scale, membytes * penalty, space.locality, active
    )
    busy = float(chunk_dur.sum())
    if p <= 1:
        if params.get("undeferred_single", False):
            time = busy + nck * (spawn + pto)
            overhead = nck * (spawn + pto)
        else:
            time = busy + nck * (spawn + push + pop + pto)
            overhead = nck * (spawn + push + pop + pto)
    else:
        # worker 0 enqueues every chunk serially before anyone runs
        seed = nck * (spawn + push)
        dmax = float(chunk_dur.max())
        # every chunk a thief executes costs one steal, and the steals
        # serialize through worker 0's deque; the owner/thief split is
        # the balance point of owner consumption rate vs serialized
        # steal rate (a locked deque makes the owner's pops contend
        # with in-flight steals, costing the owner about a steal slot)
        dur_avg = busy / nck
        owner_cost = pop + dur_avg
        if deque != "the":
            owner_cost += steal
        ns_bal = nck * owner_cost / (steal + owner_cost)
        nsteals = min(nck * (p - 1) / p, ns_bal)
        chain = nsteals * steal + dmax
        time = seed + costs.wake_latency + max(
            busy / p + nck * (pop + pto) / p, chain
        )
        if params.get("reducer", False):
            time += nsteals * costs.reducer_merge
        overhead = seed + nck * (pop + pto) + nsteals * steal
    return _aggregate_result(time, p, busy=busy, overhead=overhead, tasks=nck)


def _steal_graph_estimate(region: TaskRegion, p: int, ctx, params: dict) -> RegionResult:
    """Closed form for an explicit task DAG under work stealing:
    greedy-scheduling bound ``max(T1/p, T_inf)`` on roofline-inflated
    durations plus per-task queue overheads."""
    costs = ctx.costs
    g = region.graph_for(p)
    n = len(g)
    if n == 0:
        return _aggregate_result(0.0, p, busy=0.0, overhead=0.0, tasks=0)
    default_spawn, push, pop, steal = costs.deque_ops(params.get("deque", "the"))
    if params.get("spawn_cost") is not None:
        default_spawn = params["spawn_cost"]
    pto = params.get("per_task_overhead", 0.0)
    active = p if p > 1 else 1
    busy = float(ctx.memory.durations(g.work, g.membytes, g.locality, active).sum())
    total_spawn = float(sum(sc if sc > 0 else default_spawn for sc in g.spawn_cost))
    if p <= 1:
        if params.get("undeferred_single", False):
            overhead = total_spawn + n * pto
        else:
            overhead = total_spawn + n * (push + pop + pto)
        time = busy + overhead
    else:
        t1 = g.total_work()
        tinf = g.critical_path()
        # a work-free graph inflates like a unit of pure compute
        inflation = busy / t1 if t1 > 0 else ctx.memory.duration(1.0, active=active)
        steals = min(n, p * max(1.0, math.log2(n)))
        overhead = total_spawn + n * (push + pop + pto)
        chain = math.log2(p) * (steal + costs.steal_latency + costs.wake_latency)
        time = max((busy + overhead + steals * steal) / p, tinf * inflation + chain)
    return _aggregate_result(time, p, busy=busy, overhead=overhead, tasks=n)


def _amt_graph_estimate(region: TaskRegion, p: int, ctx, kind: str) -> RegionResult:
    """Analytic estimate for the AMT graph executors (charm/hpx/mpi).

    The static-placement models are exactly analyzable: charm (round-
    robin chares) and mpi (block-partitioned ranks) reduce to one
    occupancy-coupled forward pass over the topologically-stored tasks
    — ``start = max(pe_free, deps ready)`` — with no events, faults or
    tracing, so their calibration bound collapses to the floor.  HPX's
    greedy earliest-free placement is approximated by the greedy-
    scheduling bound ``max((T1 + overhead)/p, T_inf)``; the gap left by
    dependency-induced idling is what its calibrated bound absorbs.
    """
    costs = ctx.costs
    g = region.graph_for(p)
    n = len(g)
    if n == 0:
        return _aggregate_result(0.0, p, busy=0.0, overhead=0.0, tasks=0)
    durs = ctx.memory.durations(g.work, g.membytes, g.locality, min(n, p) if p > 1 else 1)
    busy = float(durs.sum())

    if kind == "amt_hpx":
        t1 = g.total_work()
        inflation = busy / t1 if t1 > 0 else 1.0
        tinf = g.critical_path() * inflation
        overhead = float(
            n * (costs.hpx_future_create + costs.hpx_continuation)
            + len(g.dep_idx) * costs.hpx_future_get
        )
        time = max((busy + overhead) / p, tinf) + costs.hpx_future_get
        return _aggregate_result(time, p, busy=busy, overhead=overhead, tasks=n)

    # charm / mpi: static placement, occupancy-coupled forward pass
    pe_free = [0.0] * p
    finish = [0.0] * n
    overhead = 0.0
    dep_ptr = g.dep_ptr
    dep_idx = g.dep_idx
    succ_ptr, succ_idx = g.successor_index()
    durs = durs.tolist()
    if kind == "amt_charm":
        root_ready = costs.charm_chare_create + costs.charm_msg_send
        pre = costs.charm_msg_recv + costs.charm_entry_dispatch
        for tid in range(n):
            pe = tid % p
            ready = max((finish[d] for d in dep_idx[dep_ptr[tid]:dep_ptr[tid + 1]]),
                        default=root_ready)
            post = (succ_ptr[tid + 1] - succ_ptr[tid]) * costs.charm_msg_send
            end = max(pe_free[pe], ready) + pre + durs[tid] + post
            pe_free[pe] = end
            finish[tid] = end
            overhead += pre + post
        time = max(pe_free) + costs.charm_msg_send + costs.charm_msg_recv
    else:  # amt_mpi
        for tid in range(n):
            pe = tid * p // n
            ready = 0.0
            pre = 0.0
            for d in dep_idx[dep_ptr[tid]:dep_ptr[tid + 1]]:
                arr = finish[d]
                if d * p // n != pe:
                    arr += costs.mpi_latency
                    pre += costs.mpi_msg_overhead
                ready = max(ready, arr)
            post = sum(
                costs.mpi_msg_overhead
                for s in succ_idx[succ_ptr[tid]:succ_ptr[tid + 1]] if s * p // n != pe
            )
            end = max(pe_free[pe], ready) + pre + durs[tid] + post
            pe_free[pe] = end
            finish[tid] = end
            overhead += pre + post
        coll = 0.0
        if p > 1:
            coll = costs.mpi_allreduce_base + costs.mpi_allreduce_per_step * math.ceil(
                math.log2(p)
            )
        time = max(pe_free) + coll
    return _aggregate_result(time, p, busy=busy, overhead=overhead, tasks=n)


#: AMT graph executor -> its tier-0 estimator kind
_AMT_GRAPH_KINDS = {"charm_graph": "amt_charm", "hpx_graph": "amt_hpx", "mpi_graph": "amt_mpi"}


def estimate_region(region, nthreads: int, ctx) -> tuple[str, RegionResult]:
    """Estimate one region; returns ``(estimator_kind, raw_result)``.

    ``kind == "exact"`` means the region was delegated to its reference
    executor (already analytic — serial, static worksharing, thread
    pools, offload): the result *is* the tier-2 result and needs no
    calibration.  Every other kind is a closed-form estimate whose raw
    time a :class:`Calibration` scales and bounds.  A stealing region is
    estimated over the decomposition the runtime runs
    (:func:`~repro.runtime.workstealing.loop_shape`) and pays the same
    entry/exit markers (:func:`~repro.runtime.workstealing.marker_costs`).
    """
    from repro.runtime.run import execute_region
    from repro.runtime.workstealing import loop_shape, marker_costs

    p = nthreads
    executor = getattr(region, "executor", "")
    if isinstance(region, LoopRegion) and executor == "worksharing":
        schedule = region.params.get("schedule", "static")
        if schedule in ("dynamic", "guided"):
            return f"ws_{schedule}", _ws_dispatch_estimate(region.space, p, ctx, region.params)
        # static worksharing is already closed-form in the reference runtime
        return "exact", execute_region(region, p, ctx)
    if isinstance(region, TaskRegion) and executor in _AMT_GRAPH_KINDS:
        kind = _AMT_GRAPH_KINDS[executor]
        return kind, _amt_graph_estimate(region, p, ctx, kind)
    if isinstance(region, LoopRegion) and executor == "stealing_loop":
        params = region.params
        space, size, penalty = loop_shape(region.space, p, ctx, **params)
        if params.get("style", "cilk_for") == "cilk_for":
            kind, estimate = "steal_cilkfor", _steal_cilkfor_estimate
        else:
            kind, estimate = "steal_flat", _steal_flat_estimate
        res = estimate(space, p, ctx, params, size, penalty)
        exit_marker = params.get("exit", "taskwait")
    elif isinstance(region, TaskRegion) and executor == "stealing":
        params = region.params
        kind, res = "steal_graph", _steal_graph_estimate(region, p, ctx, params)
        exit_marker = params.get("exit", "none")
    else:
        # SerialRegion, threadpool loop/graph, offload, AMT loops: the
        # reference executors are analytic already — delegate (exact,
        # bound 0).
        return "exact", execute_region(region, p, ctx)
    enter, leave = marker_costs(params.get("entry", "none"), exit_marker, p, ctx)
    res.time = enter + res.time + leave
    return kind, res


@paused_gc
def estimate_program(
    program: Program,
    nthreads: int,
    ctx,
    version: str = "",
    calibration: Optional[Calibration] = None,
) -> Tier0Result:
    """Tier-0 analytic estimate of :func:`~repro.runtime.run.run_program`.

    Returns a :class:`Tier0Result` whose ``regions`` carry per-region
    ``meta["tier"] == 0``, the estimator kind, the applied calibration
    scale and the relative error bound; the program-level
    ``error_bound`` is the time-weighted combination of the region
    bounds.  Raises the same :class:`ThreadExplosionError` a tier-2 run
    would for thread-per-task versions past the cap (the check is
    delegated with the region).
    """
    if nthreads <= 0:
        raise ValueError("nthreads must be positive")
    cal = calibration if calibration is not None else DEFAULT_CALIBRATION
    ver = version or program.meta.get("version", "")
    regions: list[RegionResult] = []
    total = 0.0
    if program.meta.get("pool_setup"):
        total += nthreads * (ctx.costs.thread_create + ctx.costs.thread_join)
    # detail span under the executor's cell.estimate: how much of the
    # tier-0 path is estimation proper vs. program building around it
    with _perf_span("tier0.estimate"):
        for region in program:
            kind, res = estimate_region(region, nthreads, ctx)
            if kind == "exact":
                bound = 0.0
                scale = 1.0
            else:
                scale = cal.scale(kind)
                bound = cal.bound(kind)
                res = RegionResult(
                    time=res.time * scale, nthreads=res.nthreads, workers=res.workers, meta=res.meta
                )
            res.meta["tier"] = TIER_ANALYTIC
            res.meta["estimator"] = kind
            res.meta["scale"] = scale
            res.meta["error_bound"] = bound
            regions.append(res)
            total += res.time
    weight = sum(r.time for r in regions)
    if weight > 0:
        error_bound = sum(r.meta["error_bound"] * r.time for r in regions) / weight
    else:
        error_bound = 0.0
    return Tier0Result(
        program=program.name,
        version=ver,
        nthreads=nthreads,
        time=total,
        regions=regions,
        trace=None,
        error_bound=error_bound,
    )


# ---------------------------------------------------------------------------
# Calibration fitting
# ---------------------------------------------------------------------------
def _synthetic_calibration_programs() -> list[Program]:
    """Dynamic/guided worksharing loops for :func:`calibrate`.

    Covers the schedule × profile-shape space the registry does not:
    uniform and linearly-skewed iteration costs, compute- and
    memory-bound, default and explicit chunk sizes.
    """
    from repro.models.openmp import parallel_for

    uniform = IterSpace.uniform(4096, 30e-9, 64.0, name="cal-uniform")
    skew_work = np.linspace(5e-9, 120e-9, 2048)
    skewed = IterSpace.from_profile(skew_work, np.full(2048, 24.0), name="cal-skewed")
    membound = IterSpace.uniform(8192, 2e-9, 512.0, locality=0.4, name="cal-membound")
    programs: list[Program] = []
    for schedule in ("dynamic", "guided"):
        for chunk in (None, 16):
            prog = Program(name=f"cal-ws-{schedule}-{chunk or 'auto'}")
            for space in (uniform, skewed, membound):
                prog.add(parallel_for(space, schedule=schedule, chunk=chunk))
            programs.append(prog)
    return programs


def calibrate(
    ctx=None,
    *,
    threads: Iterable[int] = (1, 2, 4, 8, 16),
    workloads: Optional[Iterable[str]] = None,
    margin: float = 1.25,
    floor: float = 0.02,
) -> Calibration:
    """Fit per-estimator scales and bounds against tier-2 runs.

    Runs every registered workload × version × thread count (at
    validation parameters) at tier 2, pairs each region's reference
    time with its raw tier-0 estimate, and groups the log-ratios by
    estimator kind.  Scale is the log-midrange (the multiplicative
    centre of the observed ratios); the bound is the relative error the
    scaled estimate can reach at the range's edges
    (``exp(half_range) - 1``) widened by ``margin`` and ``floor``.
    """
    from repro.core.registry import WORKLOADS
    from repro.runtime.base import ExecContext, ThreadExplosionError
    from repro.runtime.run import run_program

    if ctx is None:
        ctx = ExecContext()
    groups: dict[str, list[float]] = defaultdict(list)
    names = sorted(WORKLOADS)
    if workloads is not None:
        wanted = set(workloads)
        names = [n for n in names if n in wanted]
    for name in names:
        spec = WORKLOADS[name]
        params = dict(spec.validation_params or spec.default_params)
        for version in spec.versions:
            for p in threads:
                program = spec.build(version, ctx.machine, **params)
                try:
                    ref = run_program(program, p, ctx, version)
                except ThreadExplosionError:
                    continue  # tier 0 raises identically; nothing to fit
                for region, reg_res in zip(program, ref.regions):
                    kind, est = estimate_region(region, p, ctx)
                    if kind == "exact":
                        continue
                    if reg_res.time <= 0.0 or est.time <= 0.0:
                        continue
                    groups[kind].append(math.log(reg_res.time / est.time))
    # No registry workload exercises dynamic/guided worksharing at
    # validation parameters, so those estimator kinds are fitted against
    # synthetic loops (uniform and skewed profiles, with and without a
    # chunk clause) — otherwise they would fall back to the wide default.
    for program in _synthetic_calibration_programs():
        for p in threads:
            ref = run_program(program, p, ctx)
            for region, reg_res in zip(program, ref.regions):
                kind, est = estimate_region(region, p, ctx)
                if kind == "exact" or reg_res.time <= 0.0 or est.time <= 0.0:
                    continue
                groups[kind].append(math.log(reg_res.time / est.time))
    scales: dict[str, float] = {}
    bounds: dict[str, float] = {}
    for key, logs in sorted(groups.items()):
        lo, hi = min(logs), max(logs)
        scales[key] = math.exp((lo + hi) / 2.0)
        half = (hi - lo) / 2.0
        bounds[key] = (math.exp(half) - 1.0) * margin + floor
    fallback = max(bounds.values(), default=0.5)
    return Calibration(scales=scales, bounds=bounds, fallback_bound=fallback)


#: Shipped calibration: ``calibrate()`` over the full registry at
#: validation parameters, threads (1, 2, 4, 8, 16), committed as
#: literals so tier-0 estimates are reproducible without a fitting run.
#: Regenerate with ``python -c "from repro.sim.tiers import calibrate;
#: print(calibrate())"`` after any cost-model or estimator change.
DEFAULT_CALIBRATION = Calibration(
    scales={
        "amt_charm": 1.000000,
        "amt_hpx": 1.289837,
        "amt_mpi": 1.000000,
        "steal_cilkfor": 1.070199,
        "steal_flat": 1.064074,
        "steal_graph": 1.337380,
        "ws_dynamic": 1.046891,
        "ws_guided": 0.843019,
    },
    bounds={
        "amt_charm": 0.020000,
        "amt_hpx": 0.382296,
        "amt_mpi": 0.020000,
        "steal_cilkfor": 0.434975,
        "steal_flat": 0.528671,
        "steal_graph": 0.441725,
        "ws_dynamic": 0.104426,
        "ws_guided": 0.252766,
    },
    fallback_bound=0.528671,
)
