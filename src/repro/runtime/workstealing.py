"""Random work-stealing scheduler (Cilk Plus / OpenMP task model).

Event-driven simulation of the scheduler described in section III.B of
the paper: every worker owns a double-ended queue; the owner pushes and
pops tasks at one end, a thief steals the oldest task from the other
end.  The deque protocol is pluggable (:mod:`repro.sim.deque`): Cilk's
THE protocol keeps owner operations lock-free, the Intel-OpenMP-style
locked deque serializes everything through the deque lock — the
contention mechanism the paper blames for ``omp task`` losing to
``cilk_spawn`` on Fibonacci.

A stealing loop is a task graph on the same scheduler:
:func:`run_stealing_loop` builds the graph :func:`loop_shape` sizes and
runs it through :func:`run_stealing_graph`.  Two loop decompositions
are provided:

- :func:`cilk_for_graph` — the recursive binary splitter tree that
  ``cilk_for`` compiles to; chunk distribution happens through steals of
  subtree tasks, which serializes ramp-up and scatters data placement
  (the paper's explanation for ``cilk_for``'s poor data-parallel
  showing);
- :func:`flat_chunk_graph` — the "master creates one task per chunk"
  decomposition used by the ``omp task`` versions of data-parallel
  kernels.

Bandwidth-placement penalty: subtree stealing randomizes which worker
touches which subrange, defeating first-touch NUMA placement and
prefetch streaming.  :func:`loop_shape` charges stolen-range
executions a memory-traffic penalty that is strongest for small chunks
and fades once the memory bus is saturated anyway (when everyone is
bandwidth-bound, placement matters less).

A region's symbolic ``entry``/``exit`` markers (``"cilk"``,
``"omp_parallel"``, ``"taskwait"``, ...) are priced here too
(:func:`marker_costs`), because they depend on the thread count.  Tier 0
(:mod:`repro.sim.tiers`) reads the same markers and shapes.
"""

from __future__ import annotations

import heapq
import math
import random
from time import perf_counter, process_time
from typing import Optional

import numpy as np

from repro.faults import fault_doc
from repro.perf.spans import current as _perf_current
from repro.runtime.base import ExecContext
from repro.sim.deque import make_deque
from repro.sim.task import IterSpace, TaskGraph
from repro.sim.trace import RegionResult, WorkerStats

__all__ = [
    "StealingScheduler",
    "run_stealing_graph",
    "run_stealing_loop",
    "cilk_for_graph",
    "cilk_for_graph_batched",
    "cilk_for_tasks",
    "flat_chunk_graph",
    "default_grainsize",
    "loop_shape",
    "marker_costs",
    "scatter_penalty",
]

#: event kind of a wake-up (a finish event's kind is the task id)
_WAKE = -1


class StealingScheduler:
    """One work-stealing execution of a :class:`TaskGraph`.

    Parameters
    ----------
    deque:
        ``"the"`` (Cilk THE protocol) or ``"locked"`` (Intel OpenMP).
    spawn_cost:
        Default task-creation cost charged to the spawner when a task
        becomes ready; a task's own ``spawn_cost`` field overrides it.
    undeferred_single:
        With one thread, execute tasks immediately at creation without
        touching the deque (Intel OpenMP's if-clause style serialization;
        this is why ``omp task`` does not lose to ``cilk_spawn`` at one
        core in the paper's Fig. 5).
    central_queue:
        All workers share one queue (worker 0's deque) for every push
        and pop — the GCC libgomp task-scheduling model the paper's
        cited Podobas et al. study found uncompetitive.  Contention on
        the single lock is emergent.
    work_first:
        The paper (III.B): "In work-first, tasks are executed once they
        are created, while in breadth-first, all tasks are first
        created."  With ``work_first=True`` a worker dives into the
        first task it makes ready without a deque round-trip (Cilk's
        discipline, also saving the push/pop cost); the default queues
        every created task (breadth-first, the OpenMP default).
    per_task_overhead:
        Extra post-task cost, e.g. an atomic accumulate per task.
    reducer:
        Charge Cilk reducer semantics: a view creation per steal and a
        view merge per steal at the final sync.
    tracer:
        A :class:`~repro.obs.tracer.Tracer` receiving the structured
        event stream: task-execution spans, steal spans, engine event
        times and per-deque lock grants.  This is the one observability
        hook; disabled (``None``) it costs a single branch at each
        emission site.

    The simulation is one discrete-event loop (:meth:`_drain`) over a
    binary heap of ``(time, seq, worker, kind)`` entries; ties in time
    fire in insertion (``seq``) order, so a run is deterministic.
    """

    def __init__(
        self,
        graph: TaskGraph,
        nthreads: int,
        ctx: ExecContext,
        *,
        deque: str = "the",
        spawn_cost: Optional[float] = None,
        undeferred_single: bool = False,
        per_task_overhead: float = 0.0,
        reducer: bool = False,
        central_queue: bool = False,
        work_first: bool = False,
        tracer=None,
        faults=None,
    ) -> None:
        if nthreads <= 0:
            raise ValueError("nthreads must be positive")
        self.graph = graph
        self.p = nthreads
        self.ctx = ctx
        self.deque_kind = deque
        if spawn_cost is None:
            spawn_cost = ctx.costs.deque_ops(deque)[0]
        self.spawn_cost = spawn_cost
        self.undeferred_single = undeferred_single
        self.per_task_overhead = per_task_overhead
        self.reducer = reducer
        self.tracer = tracer

        self._heap: list[tuple[float, int, int, int]] = []
        self.events = 0
        self.rng = random.Random(ctx.seed ^ (len(graph) * 2654435761 % (1 << 30)))
        self.deques = [
            make_deque(deque, w, ctx.costs, tracer=tracer)
            for w in range(nthreads)
        ]
        self.stats = [WorkerStats() for _ in range(nthreads)]
        self.steal_time = 0.0
        self.done = 0
        self.finish_time = 0.0
        self.steal_views = 0
        self.central_queue = central_queue
        self.work_first = work_first
        # fault-injection state (all inert when faults is None)
        self.faults = faults
        self.started = 0          # start-order ordinal for fault targeting
        self.poisoned = False     # spawn tree poisoned: nothing new issues
        self.poison_time = 0.0
        self.issued_after_poison = 0
        self._fail_err: Optional[str] = None
        self._fail_time = 0.0
        self._duration = ctx.memory.memoized(nthreads)

    # ------------------------------------------------------------------
    def run(self) -> RegionResult:
        graph = self.graph
        if len(graph) == 0:
            return RegionResult(time=0.0, nthreads=self.p, workers=self.stats)
        if self.p == 1 and self.undeferred_single:
            return self._run_serial_undeferred()

        # Worker 0 seeds its deque with the roots (the tasks with no
        # unmet dependency); workers 1..p-1 begin idle.
        remaining = graph.indegrees()
        t = 0.0
        dq = self.deques[0]
        spawn_cost = graph.spawn_cost
        pushed = 0
        for tid, unmet in enumerate(remaining):
            if not unmet:
                sc = spawn_cost[tid]
                t += sc if sc > 0 else self.spawn_cost
                t = dq.push(t, tid)
                pushed += 1
        self.stats[0].overhead += t
        # Host telemetry: with a repro.perf recording active the loop's
        # host cost lands in an ``engine.drain`` span and its event count
        # in an ``engine.events`` counter; one predicate per region.
        rec = _perf_current()
        if rec is None:
            self._drain(remaining, pushed, t)
        else:
            t0 = perf_counter()
            c0 = process_time()
            try:
                self._drain(remaining, pushed, t)
            finally:
                rec.add_span("engine.drain", perf_counter() - t0, process_time() - c0)
                rec.count("engine.events", self.events)
        if self.done != len(graph) and not self.poisoned:
            raise RuntimeError(
                f"deadlock: {self.done}/{len(graph)} tasks completed in {graph.name}"
            )
        finish = self.finish_time
        if self.reducer and self.steal_views:
            finish += self.steal_views * self.ctx.costs.reducer_merge
        meta = {
            "steals": sum(d.steals for d in self.deques),
            # a steal never fails; the key stays so that stored results
            # keep their bytes until a codec version bump drops it
            "failed_steals": 0,
            "lock_wait": sum(d.lock.wait_time for d in self.deques),
            "steal_time": self.steal_time,
            "max_deque_depth": max(d.max_depth for d in self.deques),
            "events": self.events,
            "reducer_views": self.steal_views,
        }
        return RegionResult(
            time=finish, nthreads=self.p, workers=self.stats, meta=self._accounted(meta)
        )

    def _accounted(self, meta: dict) -> dict:
        """``meta`` plus the useful-work meta and, under faults, the fault
        document."""
        meta.update(self.graph.expected_meta())
        if self.faults is not None:
            meta["fault"] = fault_doc(
                self.faults.triggered, self._fail_err, self._fail_time, self.faults.mode,
                sum(s.busy for s in self.stats), cancelled=self.poisoned,
                cancel_time=self.poison_time,
                issued_after_cancel=self.issued_after_poison,
                skipped=len(self.graph) - self.done,
            )
        return meta

    def _run_serial_undeferred(self) -> RegionResult:
        """One thread, tasks executed immediately at creation."""
        t = 0.0
        st = self.stats[0]
        tracer = self.tracer
        faults = self.faults
        g = self.graph
        tags = g.tag_names
        columns = zip(g.work, g.membytes, g.locality, g.spawn_cost, g.tag_id)
        # creation order is topological
        for ordinal, (work, membytes, locality, sc, tag) in enumerate(columns):
            spawn = sc if sc > 0 else self.spawn_cost
            dur = self._duration(work, membytes, locality, 1)
            failure = None
            if faults is not None:
                stall, slow, failure = faults.work_item(ordinal, 0, t + spawn)
                if stall > 0.0:
                    if tracer is not None:
                        tracer.span(0, t + spawn, t + spawn + stall, "stall", "worker_stall")
                    st.overhead += stall
                    t += stall
                dur *= slow
            if tracer is not None:
                tracer.span(0, t + spawn, t + spawn + dur, "task", tags[tag] or "task")
            t += spawn + dur + self.per_task_overhead
            st.busy += dur
            st.overhead += spawn + self.per_task_overhead
            st.tasks += 1
            self.done += 1
            if failure is not None:
                self._fail_err = failure
                self._fail_time = t - self.per_task_overhead
                if faults.mode in ("poison", "cancel", "async_cancel"):
                    # serial abort: stop issuing past the failure point
                    self.poisoned = True
                    self.poison_time = self._fail_time
                    if tracer is not None:
                        tracer.instant(0, self._fail_time, "cancel")
                    break
        self.finish_time = t
        meta = self._accounted({"steals": 0, "undeferred": True})
        return RegionResult(time=t, nthreads=1, workers=self.stats, meta=meta)

    # ------------------------------------------------------------------
    def _drain(self, remaining: list[int], pushed: int, t: float) -> None:
        """The event loop: worker 0 has seeded ``pushed`` roots by time
        ``t`` and ``remaining`` holds each task's unmet dependencies;
        wake idlers for the roots, then run events until the heap drains
        or a poisoned tree goes quiet.

        Heap entries are ``(time, seq, worker, kind)``: ``kind`` is the
        id of the task ``worker`` finishes at ``time``, or ``_WAKE`` for
        a wake-up.  ``seq`` counts pushes and breaks time ties in
        insertion order.  Each pass does what a worker does at time
        ``t`` — wake one idler per pushed task, then start the task it
        dives into or pop/steal one — and then takes the next event and
        applies its finish (push ready successors) or wake-up.  A pass
        that starts a task pushes its finish and pops the next event in
        one ``heappushpop`` (``seq`` is unique, so the order is that of
        a push then a pop).  A worker leaves ``idle`` only for its
        wake-up, which is then its one pending event, so no worker state
        is kept beyond the ``idle`` list.

        A task lasts :meth:`~repro.sim.memory.MemoryModel.memoized`'s
        roofline formula, inlined: ``work / speeds[active]``, raised to
        ``membytes`` over the bandwidth per ``(active, locality)`` when
        that is larger.  A duration function without a ``speeds`` table
        (the scalar reference) is called per task instead.

        The THE protocol's owner push and pop take no lock, so on THE
        deques they run here on the deque's items, charging
        ``the_push``/``the_pop`` as :class:`~repro.sim.deque.THEDeque`
        does; the push counts and depth high-water marks, like each
        worker's busy, overhead and task totals, are kept in lists and
        written back once when the loop ends.  A THE deque's pops are
        not counted: every item pushed either left by an owner pop or a
        steal or is still queued, so the pops are derived from the
        pushes, steals and final length.  Steals and every
        :class:`~repro.sim.deque.LockedDeque` operation go through the
        deque's methods and its :class:`~repro.sim.engine.SimLock`.
        """
        p = self.p
        graph = self.graph
        work = graph.work
        membytes = graph.membytes
        locality = graph.locality
        task_spawn = graph.spawn_cost
        tag_id = graph.tag_id
        tags = graph.tag_names
        succ_ptr, succ_idx = graph.successor_index()
        deques = self.deques
        costs = self.ctx.costs
        # the deque each worker pushes to and pops from
        home = [0] * p if self.central_queue else list(range(p))
        own_push = [deques[k].push for k in home]
        own_pop = [deques[k].pop for k in home]
        items = [d.items for d in deques]
        own_items = [items[k] for k in home]
        the = self.deque_kind == "the"
        the_push = costs.the_push
        the_pop = costs.the_pop
        pushes = [d.pushes for d in deques]
        # pops = base + pushes - steals - len(items) at any point
        pop_base = [d.pops - d.pushes + d.steals + len(d.items) for d in deques]
        depth = [d.max_depth for d in deques]
        stats = self.stats
        busy = [st.busy for st in stats]
        overhead = [st.overhead for st in stats]
        ntasks = [st.tasks for st in stats]
        idle = list(range(1, p))  # worker 0 seeded the roots
        heap = self._heap
        heappush = heapq.heappush
        heappop = heapq.heappop
        heappushpop = heapq.heappushpop
        duration = self._duration
        speed = getattr(duration, "speeds", None)
        bandwidth = self.ctx.memory.machine.bandwidth_per_thread
        bws: dict[tuple[int, float], float] = {}
        randrange = self.rng.randrange
        tracer = self.tracer
        faults = self.faults
        workers = range(p)
        spawn_cost = self.spawn_cost
        per_task_overhead = self.per_task_overhead
        work_first = self.work_first
        central_queue = self.central_queue
        reducer = self.reducer
        steal_latency = costs.steal_latency
        wake_latency = costs.wake_latency
        poison_on_fail = faults is not None and faults.mode in ("poison", "cancel")
        max_events = self.ctx.max_events
        # the check runs after each event, so a limit below 0 acts as 0
        limit = math.inf if max_events is None else max(max_events, 0)

        now = 0.0
        seq = 0
        processed = 0
        active = 0
        done = 0
        finish_time = 0.0
        steal_time = 0.0
        steal_views = 0
        poisoned = False
        fail_tid = None
        quiet = False
        w = 0
        its = own_items[0]
        dive = None
        while True:
            # -- worker w at time t: wake idlers, then run a task ------
            if pushed and idle:
                wake_at = (now if now > t else t) + wake_latency
                while pushed and idle:
                    seq += 1
                    heappush(heap, (wake_at, seq, idle.pop(), _WAKE))
                    pushed -= 1
            tid = dive
            if tid is None:
                if poisoned:
                    # poisoned tree: nothing new is popped or stolen; once
                    # the last in-flight task drains the execution aborts
                    idle.append(w)
                    if active == 0:
                        quiet = True
                else:
                    if the:
                        if its:
                            tid = its.pop()
                            t2 = t + the_pop
                            overhead[w] += t2 - t
                            t = t2
                    else:
                        tid, t2 = own_pop[w](t)
                        if tid is not None:
                            overhead[w] += t2 - t
                            t = t2
                    if tid is None and not central_queue:
                        # random victim among non-empty deques, so the
                        # steal always takes a task
                        candidates = [v for v in workers if v != w and items[v]]
                        if candidates:
                            victim = candidates[randrange(len(candidates))]
                            tid, t2 = deques[victim].steal(t + steal_latency)
                            overhead[w] += t2 - t
                            steal_time += t2 - t
                            stats[w].steals += 1
                            if reducer:
                                t2 += costs.reducer_view
                                steal_views += 1
                            if tracer is not None:
                                tracer.span(w, t, t2, "steal", f"steal<-w{victim}")
                            t = t2
                    if tid is None:
                        idle.append(w)
            if tid is not None:
                active += 1
                if speed is None:
                    dur = duration(work[tid], membytes[tid], locality[tid], active)
                else:
                    dur = work[tid] / speed[active]
                    mb = membytes[tid]
                    if mb:
                        key = (active, locality[tid])
                        bw = bws.get(key)
                        if bw is None:
                            bw = bws[key] = bandwidth(active, locality[tid])
                        mem = mb / bw
                        if mem > dur:
                            dur = mem
                t0 = now if now > t else t
                if faults is not None:
                    if poisoned:
                        self.issued_after_poison += 1
                    stall, slow, failure = faults.work_item(self.started, w, t0)
                    self.started += 1
                    if stall > 0.0:
                        if tracer is not None:
                            tracer.span(w, t0, t0 + stall, "stall", "worker_stall")
                        overhead[w] += stall
                        t0 += stall
                    dur *= slow
                    if failure is not None:
                        self._fail_err = failure
                        self._fail_time = t0 + dur
                        fail_tid = tid
                busy[w] += dur
                ntasks[w] += 1
                if tracer is not None:
                    tracer.span(w, t0, t0 + dur, "task", tags[tag_id[tid]] or "task")
                end = t0 + dur
                if end < now:
                    raise ValueError(f"cannot schedule at {end} before now={now}")
                # -- next event: the task's finish goes in, the earliest
                # event comes out ------------------------------------------
                if processed > limit:
                    raise RuntimeError(f"simulation exceeded {max_events} events")
                seq += 1
                now, s, w, kind = heappushpop(heap, (end, seq, w, tid))
            else:
                # -- next event: no task started, so one comes out ------
                if processed > limit:
                    raise RuntimeError(f"simulation exceeded {max_events} events")
                if quiet or not heap:
                    self.events = processed
                    self.done = done
                    self.finish_time = finish_time
                    self.steal_time = steal_time
                    self.steal_views = steal_views
                    for st, b, o, n in zip(stats, busy, overhead, ntasks):
                        st.busy = b
                        st.overhead = o
                        st.tasks = n
                    if the:
                        for d, n_push, base, high in zip(deques, pushes, pop_base, depth):
                            d.pushes = n_push
                            d.pops = base + n_push - d.steals - len(d.items)
                            d.max_depth = high
                    return
                now, s, w, kind = heappop(heap)
            processed += 1
            if tracer is not None:
                tracer.engine_event(now, s)
            t = now
            pushed = 0
            dive = None
            its = own_items[w]
            if kind == _WAKE:
                if tracer is not None:
                    tracer.instant(w, now, "wake")
                continue
            # worker w finished task `kind`
            active -= 1
            if poison_on_fail and kind == fail_tid and not poisoned:
                # the exception (or `omp cancel taskgroup`) surfaces
                # when the failing strand completes: poison the spawn
                # tree — in-flight tasks drain, continuations and
                # queued tasks are abandoned at the implicit sync
                poisoned = self.poisoned = True
                self.poison_time = t
                if tracer is not None:
                    tracer.instant(w, t, "cancel")
            done += 1
            if poisoned:
                if t > finish_time:
                    finish_time = t
                continue
            for succ in succ_idx[succ_ptr[kind]:succ_ptr[kind + 1]]:
                left = remaining[succ] - 1
                remaining[succ] = left
                if left == 0:
                    sc = task_spawn[succ]
                    t += sc if sc > 0 else spawn_cost
                    if work_first and dive is None:
                        dive = succ  # execute-on-creation: no deque round-trip
                    else:
                        if the:
                            its.append(succ)
                            t += the_push
                        else:
                            t = own_push[w](t, succ)
                        pushed += 1
            if the and pushed:
                # every push of one finish lands on one deque, so its
                # depth peaks after the last of them
                k = home[w]
                pushes[k] += pushed
                if len(its) > depth[k]:
                    depth[k] = len(its)
            if per_task_overhead:
                t += per_task_overhead
            overhead[w] += t - now
            if t > finish_time:
                finish_time = t

# ---------------------------------------------------------------------------
# Graph front-ends
# ---------------------------------------------------------------------------
def default_grainsize(niter: int, nthreads: int, cap: int = 2048) -> int:
    """Cilk Plus's automatic cilk_for grainsize: min(cap, N / 8p)."""
    return max(1, min(cap, -(-niter // (8 * nthreads))))


def cilk_for_graph(
    space: IterSpace,
    grainsize: int,
    ctx: ExecContext,
    *,
    bytes_penalty: float = 1.0,
    work_scale: float = 1.0,
) -> TaskGraph:
    """The recursive binary splitter tree ``cilk_for`` compiles to.

    Interior tasks are range splits (cost ``cilk_split``); leaves execute
    ``grainsize``-iteration chunks.  Built iteratively to tolerate deep
    ranges.
    """
    g = TaskGraph(f"cilk_for[{space.name}]")
    split_cost = ctx.costs.cilk_split
    stack = [(0, space.niter, ())]
    while stack:
        lo, hi, deps = stack.pop()
        if hi - lo <= grainsize:
            work, membytes = space.chunk_cost(lo, hi)
            g.add(
                work * work_scale,
                membytes * bytes_penalty,
                space.locality,
                deps=deps,
                tag="chunk",
            )
        else:
            tid = g.add(split_cost, deps=deps, tag="split")
            mid = (lo + hi) // 2
            stack.append((lo, mid, (tid,)))
            stack.append((mid, hi, (tid,)))
    return g


def cilk_for_tasks(niter: int, grainsize: int) -> int:
    """Task count of the ``cilk_for`` splitter tree over ``niter``
    iterations: its leaves plus one split fewer."""
    return _tree_size(niter, grainsize, {})


def _tree_size(length: int, grainsize: int, sizes: dict[int, int]) -> int:
    # memoized on range length: each level of the halving recursion has
    # at most two distinct lengths.  A module-level recursion: a
    # recursive closure would be a reference cycle, left for the
    # (paused) cyclic collector
    if length <= grainsize:
        return 1
    s = sizes.get(length)
    if s is None:
        half = length // 2
        s = sizes[length] = (
            1 + _tree_size(half, grainsize, sizes) + _tree_size(length - half, grainsize, sizes)
        )
    return s


def _cum_at_vec(cum: np.ndarray, pos: np.ndarray, nblocks: int, niter: int) -> np.ndarray:
    """Vectorized :meth:`IterSpace._cum_at` with the scalar's exact
    operation order: ``x = (pos * nblocks) / niter``, truncate, clamp,
    linear interpolation.  Callers must guarantee ``niter * nblocks <
    2**53`` so the float64 product is exact (then multiply-and-divide is
    bit-identical to Python's int-product true division)."""
    x = pos * float(nblocks) / float(niter)
    k = x.astype(np.int64)
    kc = np.minimum(k, nblocks - 1)
    frac = x - kc
    val = cum[kc] + frac * (cum[kc + 1] - cum[kc])
    return np.where(k >= nblocks, cum[-1], val)


def cilk_for_graph_batched(
    space: IterSpace,
    grainsize: int,
    ctx: ExecContext,
    *,
    bytes_penalty: float = 1.0,
    work_scale: float = 1.0,
) -> TaskGraph:
    """Fast builder for :func:`cilk_for_graph`: identical tree
    (same task ids, deps, tags, creation order), built from whole
    columns (:meth:`TaskGraph.from_columns`) with its critical path.

    The first pass lays the tree out level by level: a node of range
    length ``L`` splits into a left half of ``L // 2`` and a right half
    of ``L - L // 2``, and the scalar builder visits the right half
    first, so the right child's id is its parent's plus one and the
    left child's follows the right subtree, whose size depends only on
    its length.  Leaf costs are then computed in one vectorized sweep
    whose float ops mirror the scalar ``_cum_at`` exactly.  When
    ``niter * nblocks`` approaches 2**53 the float64 product is no
    longer exact and we fall back to the scalar builder rather than
    risk a one-ulp divergence.
    """
    niter = space.niter
    nblocks = space.nblocks
    if niter * nblocks >= 2 ** 53:
        return cilk_for_graph(
            space, grainsize, ctx, bytes_penalty=bytes_penalty, work_scale=work_scale
        )
    # pass 1: the tree, one level per step
    sizes: dict[int, int] = {}
    ntasks = _tree_size(niter, grainsize, sizes)
    is_leaf = np.zeros(ntasks, dtype=bool)
    lo_a = np.zeros(ntasks, dtype=np.int64)
    hi_a = np.zeros(ntasks, dtype=np.int64)
    parent = np.zeros(ntasks, dtype=np.int64)
    depth = np.zeros(ntasks, dtype=np.int64)
    ids = np.zeros(1, dtype=np.int64)
    lo = np.zeros(1, dtype=np.int64)
    hi = np.full(1, niter, dtype=np.int64)
    level = 0
    while True:
        leaf = hi - lo <= grainsize
        is_leaf[ids] = leaf
        lo_a[ids] = lo
        hi_a[ids] = hi
        depth[ids] = level
        split = ~leaf
        if not split.any():
            break
        ids, lo, hi = ids[split], lo[split], hi[split]
        mid = (lo + hi) // 2
        right = ids + 1
        # halving keeps a level's range lengths within {m, m + 1}
        right_len = hi - mid
        m = int(right_len.min())
        left = right + np.where(
            right_len == m, _tree_size(m, grainsize, sizes), _tree_size(m + 1, grainsize, sizes)
        )
        parent[right] = parent[left] = ids
        ids = np.concatenate((right, left))
        lo, hi = np.concatenate((mid, lo)), np.concatenate((hi, mid))
        level += 1
    # pass 2: batched leaf costs (scalar chunk_cost op order)
    leaf_lo = lo_a[is_leaf].astype(np.float64)
    leaf_hi = hi_a[is_leaf].astype(np.float64)
    cw, cb = space._cum_work, space._cum_bytes
    works = np.maximum(
        _cum_at_vec(cw, leaf_hi, nblocks, niter) - _cum_at_vec(cw, leaf_lo, nblocks, niter), 0.0
    )
    membytes = np.maximum(
        _cum_at_vec(cb, leaf_hi, nblocks, niter) - _cum_at_vec(cb, leaf_lo, nblocks, niter), 0.0
    )
    # pass 3: the columns; splits take add()'s defaults
    split_cost = ctx.costs.cilk_split
    work_col = np.full(ntasks, split_cost)
    work_col[is_leaf] = works * work_scale
    bytes_col = np.zeros(ntasks)
    bytes_col[is_leaf] = membytes * bytes_penalty
    # T_inf: a split at depth d ends at the sequential sum ends[d + 1] of
    # d + 1 split costs, and a leaf at ends[d] plus its work
    ends = [0.0]
    for _ in range(level):
        ends.append(ends[-1] + split_cost)
    leaf_finish = np.array(ends)[depth[is_leaf]] + work_col[is_leaf]
    return TaskGraph.from_columns(
        f"cilk_for[{space.name}]", work_col, bytes_col,
        np.where(is_leaf, space.locality, 1.0),
        tag_id=is_leaf, tag_names=("split", "chunk"),
        dep_ptr=np.arange(-1, ntasks, dtype=np.int64).clip(0), dep_idx=parent[1:],
        critical_path=leaf_finish.max(),
    )


def flat_chunk_graph(
    space: IterSpace,
    nchunks: int,
    ctx: ExecContext,
    *,
    bytes_penalty: float = 1.0,
    work_scale: float = 1.0,
) -> TaskGraph:
    """One independent task per contiguous chunk (``omp task`` loops):
    chunk ``i`` covers ``[i * niter // nchunks, (i + 1) * niter //
    nchunks)``, at most ``niter`` chunks.  Built from whole columns with
    :func:`cilk_for_graph_batched`'s exact-order leaf costs, and with a
    per-chunk loop past the same 2**53 guard."""
    if nchunks <= 0:
        raise ValueError("nchunks must be positive")
    niter = space.niter
    nchunks = min(nchunks, niter)
    name = f"flat[{space.name}]"
    if niter * space.nblocks >= 2 ** 53:
        g = TaskGraph(name)
        for i in range(nchunks):
            work, membytes = space.chunk_cost(i * niter // nchunks, (i + 1) * niter // nchunks)
            g.add(work * work_scale, membytes * bytes_penalty, space.locality, tag="chunk")
        return g
    # i * niter // nchunks without the int64 product i * niter
    q, r = divmod(niter, nchunks)
    i = np.arange(nchunks + 1, dtype=np.int64)
    edges = (i * q + i * r // nchunks).astype(np.float64)
    nblocks = space.nblocks
    cw, cb = space._cum_work, space._cum_bytes
    at_w = _cum_at_vec(cw, edges, nblocks, niter)
    at_b = _cum_at_vec(cb, edges, nblocks, niter)
    work = np.maximum(at_w[1:] - at_w[:-1], 0.0) * work_scale
    # T_inf as the forward pass sums it: every chunk starts at 0.0
    return TaskGraph.from_columns(
        name, work, np.maximum(at_b[1:] - at_b[:-1], 0.0) * bytes_penalty, space.locality,
        tag_names=("chunk",), critical_path=(0.0 + work).max(),
    )


#: scatter_penalty's fine-chunk term at zero chunk footprint, tuned to
#: the paper's Fig. 1/3/4 ladder (docs/ARCHITECTURE.md, Calibration)
SMALL_CHUNK_PENALTY = 0.9
#: scatter_penalty's flat cross-socket term, tuned with the one above
NUMA_SCATTER_PENALTY = 0.25
#: chunk footprint (bytes) over which the fine-chunk term decays by 1/e
SCATTER_BYTES = 2e6


def scatter_penalty(space: IterSpace, nchunks: int, nthreads: int, ctx: ExecContext) -> float:
    """Memory-traffic multiplier for randomly-placed stolen subranges.

    Three ingredients, all fading to 1.0 when they don't apply:

    - fine chunks lose prefetch/TLB efficiency (decays exponentially
      with chunk footprint against ``SCATTER_BYTES``); this term is
      scaled by how *unsaturated* the memory system is — once every
      thread is bandwidth-starved, prefetch efficiency no longer
      differentiates (this is why the paper sees the cilk_for Axpy gap
      close at 32 cores);
    - once the computation spans sockets, random placement defeats
      first-touch NUMA locality and pushes traffic across the
      interconnect (flat ``NUMA_SCATTER_PENALTY`` — remote hops cost
      bandwidth whether or not the local controllers are saturated).
    """
    if nthreads <= 1:
        return 1.0
    if space.total_bytes <= 0:
        return 1.0
    machine = ctx.machine
    chunk_bytes = space.total_bytes / max(1, nchunks)
    scatter = math.exp(-chunk_bytes / SCATTER_BYTES)
    agg_share = machine.bandwidth_per_thread(nthreads, space.locality)
    cap = machine.bandwidth_per_thread(1, space.locality)
    unsat = min(1.0, agg_share / cap) if cap > 0 else 1.0
    penalty = SMALL_CHUNK_PENALTY * scatter * unsat
    if machine.sockets_spanned(nthreads) > 1:
        penalty += NUMA_SCATTER_PENALTY
    return 1.0 + penalty


def marker_costs(entry: str, exit: str, p: int, ctx: ExecContext) -> tuple[float, float]:
    """Price a region's symbolic ``entry`` and ``exit`` markers at ``p``
    threads; returns ``(entry_seconds, exit_seconds)``."""
    costs = ctx.costs
    if entry in ("none", ""):
        enter = 0.0
    elif entry == "omp_parallel":
        enter = costs.fork_cost(p)
    elif entry == "cilk":
        # Cilk workers persist across the program; entering a parallel
        # section costs one spawn.
        enter = costs.cilk_spawn
    else:
        raise ValueError(f"unknown entry marker {entry!r}")
    if exit in ("none", ""):
        leave = 0.0
    elif exit == "barrier":
        leave = costs.barrier_cost(p)
    elif exit in ("taskwait", "sync"):
        leave = costs.taskwait
    elif exit == "taskwait+barrier":
        leave = costs.taskwait + costs.barrier_cost(p)
    else:
        raise ValueError(f"unknown exit marker {exit!r}")
    return enter, leave


def loop_shape(
    space: IterSpace,
    p: int,
    ctx: ExecContext,
    *,
    style: str = "cilk_for",
    grainsize: Optional[int] = None,
    nchunks: Optional[int] = None,
    chunks_per_thread: int = 1,
    reducer: bool = False,
    apply_scatter_penalty: bool = True,
    **_loop_params,
) -> tuple[IterSpace, int, float]:
    """The decomposition a stealing loop runs at ``p`` threads:
    ``(space, grainsize_or_nchunks, bytes_penalty)``.

    ``space`` carries the reducer's per-iteration hypermap lookup;
    ``style="cilk_for"`` gives the splitter tree's grainsize and its
    placement penalty, ``style="flat"`` the chunk count (at most one
    chunk per iteration; the FIFO steal order hands thieves long
    contiguous runs, so no penalty).  A stealing loop region's other
    params are accepted and ignored, so its params pass straight through.
    """
    if reducer:
        # Reducer hyperobject updates cost a hypermap lookup per access.
        space = space.with_extra_work_per_iter(ctx.costs.reducer_access)
    if style == "cilk_for":
        gsize = grainsize if grainsize is not None else default_grainsize(space.niter, p)
        penalty = (
            scatter_penalty(space, -(-space.niter // gsize), p, ctx)
            if apply_scatter_penalty else 1.0
        )
        return space, gsize, penalty
    if style == "flat":
        nck = nchunks if nchunks is not None else p * max(1, chunks_per_thread)
        return space, min(nck, space.niter), 1.0
    raise ValueError(f"unknown stealing loop style {style!r}")


def run_stealing_loop(
    space: IterSpace,
    nthreads: int,
    ctx: ExecContext,
    *,
    style: str = "cilk_for",
    deque: str = "the",
    grainsize: Optional[int] = None,
    nchunks: Optional[int] = None,
    chunks_per_thread: int = 1,
    reducer: bool = False,
    per_task_overhead: float = 0.0,
    work_scale: float = 1.0,
    entry: str = "none",
    exit: str = "taskwait",
    apply_scatter_penalty: bool = True,
    undeferred_single: bool = False,
    tracer=None,
    faults=None,
) -> RegionResult:
    """Execute a parallel loop on the work-stealing runtime: the graph
    :func:`loop_shape` sizes, run by :func:`run_stealing_graph`.

    ``style="cilk_for"`` builds the splitter tree (with placement
    penalty); ``style="flat"`` builds master-spawned chunk tasks.  The
    loop ends in a ``taskwait`` unless ``exit`` says otherwise.

    Under ``faults`` the loop's mode is usually ``"none"``: Table III
    gives Cilk-style data parallelism no cancellation story, so an
    injected failure lets the loop run to completion and is only
    surfaced in the accounting.
    """
    if nthreads <= 0:
        raise ValueError("nthreads must be positive")
    space, size, penalty = loop_shape(
        space, nthreads, ctx, style=style, grainsize=grainsize, nchunks=nchunks,
        chunks_per_thread=chunks_per_thread, reducer=reducer,
        apply_scatter_penalty=apply_scatter_penalty,
    )
    build = cilk_for_graph_batched if style == "cilk_for" else flat_chunk_graph
    res = run_stealing_graph(
        build(space, size, ctx, bytes_penalty=penalty, work_scale=work_scale),
        nthreads, ctx, deque=deque, per_task_overhead=per_task_overhead, reducer=reducer,
        entry=entry, exit=exit, undeferred_single=undeferred_single,
        tracer=tracer, faults=faults,
    )
    res.meta["bytes_penalty"] = penalty
    res.meta["style"] = style
    return res


def run_stealing_graph(
    graph: TaskGraph,
    nthreads: int,
    ctx: ExecContext,
    *,
    deque: str = "the",
    spawn_cost: Optional[float] = None,
    per_task_overhead: float = 0.0,
    reducer: bool = False,
    entry: str = "none",
    exit: str = "none",
    undeferred_single: bool = False,
    central_queue: bool = False,
    work_first: bool = False,
    tracer=None,
    faults=None,
) -> RegionResult:
    """Execute an explicit task DAG on the work-stealing runtime,
    charging its ``entry`` and ``exit`` markers (:func:`marker_costs`)
    around the scheduler's makespan."""
    enter, leave = marker_costs(entry, exit, nthreads, ctx)
    if tracer is not None:
        # spans inside the scheduler are region-local starting after the
        # (already charged) entry cost
        tracer.offset += enter
    sched = StealingScheduler(
        graph,
        nthreads,
        ctx,
        deque=deque,
        spawn_cost=spawn_cost,
        per_task_overhead=per_task_overhead,
        reducer=reducer,
        undeferred_single=undeferred_single,
        central_queue=central_queue,
        work_first=work_first,
        tracer=tracer,
        faults=faults,
    )
    res = sched.run()
    return RegionResult(
        time=enter + res.time + leave,
        nthreads=nthreads,
        workers=res.workers,
        meta=res.meta,
    )
