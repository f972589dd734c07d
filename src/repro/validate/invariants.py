"""Trace invariant checker: is a simulation result physically plausible?

Every invariant here rules out a class of runtime-accounting bug that
would silently invalidate the paper's cross-runtime comparisons:

- **interval-overlap** — a worker executing two tasks at once means the
  scheduler double-booked a core; any speedup measured from such a trace
  is fiction.
- **event-monotonic** — the engine's clock ran backwards (or broke its
  insertion-order tie-break), so "earlier/later" in the trace is
  meaningless.
- **work-conservation** — total busy seconds must land inside the cost
  model's envelope ``[max(W, B/bw_1), W/speed_p + B/bw_min]``: below it
  the runtime dropped work (chunks skipped), above it work was invented
  or double-executed.
- **lock-exclusivity** — two overlapping :class:`~repro.sim.engine.SimLock`
  grant windows mean the deque/loop-counter serialization the paper's
  contention findings rest on was not actually enforced.
- **makespan bounds** — a finish time below the critical path or below
  ``busy / p`` is a scheduling miracle, i.e. an accounting bug.
- **graph-structure** — a task region's graph must pass
  :meth:`~repro.sim.task.TaskGraph.validate`, including a critical path
  its builder supplied: the makespan bound above is only as good as it.
- **worker-wallclock** — one worker's busy + overhead seconds cannot
  exceed the region's wall-clock time (workers are sequential).
- **fault accounting** — regions run under a :mod:`repro.faults` plan
  must split busy seconds exactly into useful + wasted, credit no
  useful work to failed attempts, issue nothing after a cancellation
  point, and never re-run a region after a successful attempt
  (retry idempotency).  Work-conservation and critical-path bounds are
  suspended for attempts where a fault actually fired — dropped and
  slowed work is the *point* of the injection.

Checks accumulate into a :class:`ValidationReport`; callers either
inspect ``report.ok`` or call :meth:`ValidationReport.raise_if_failed`.
All tolerances are relative (``_RTOL``) with a tiny absolute floor, so
the checker works unchanged from nanosecond lock holds to second-scale
makespans.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from repro.obs.tracer import EXEC_KINDS
from repro.runtime.base import ExecContext
from repro.sim.task import Program, TaskRegion
from repro.sim.trace import RegionResult, SimResult

__all__ = [
    "SimulationInvariantError",
    "Violation",
    "ValidationReport",
    "busy_envelope",
    "check_event_times",
    "check_graphs",
    "check_intervals",
    "check_lock_log",
    "check_region",
    "check_result",
    "check_trace",
    "stats_snapshot",
]

#: Relative tolerance for float comparisons (sums accumulated in
#: different orders agree to far better than this).
_RTOL = 1e-6
#: Absolute floor so zero-valued quantities compare cleanly.
_ATOL = 1e-12


class SimulationInvariantError(AssertionError):
    """A simulation result violated a physical-plausibility invariant."""


@dataclass(frozen=True)
class Violation:
    """One failed invariant check."""

    invariant: str  # short id, e.g. "interval-overlap"
    where: str      # which result/region/worker
    detail: str     # the numbers that disagree

    def __str__(self) -> str:
        return f"[{self.invariant}] {self.where}: {self.detail}"


@dataclass
class ValidationReport:
    """Accumulated outcome of a validation run."""

    checks: int = 0
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def check(self, condition: bool, invariant: str, where: str, detail: str = "") -> bool:
        """Count one check; record a :class:`Violation` when it fails."""
        self.checks += 1
        if not condition:
            self.violations.append(Violation(invariant, where, detail))
        return condition

    def merge(self, other: "ValidationReport") -> "ValidationReport":
        self.checks += other.checks
        self.violations.extend(other.violations)
        return self

    def describe(self, max_violations: int = 25) -> str:
        if self.ok:
            return f"OK: {self.checks} invariant checks passed"
        lines = [f"FAILED: {len(self.violations)} of {self.checks} invariant checks"]
        for v in self.violations[:max_violations]:
            lines.append(f"  {v}")
        hidden = len(self.violations) - max_violations
        if hidden > 0:
            lines.append(f"  ... and {hidden} more")
        return "\n".join(lines)

    def raise_if_failed(self) -> None:
        if not self.ok:
            raise SimulationInvariantError(self.describe())


def stats_snapshot(res: RegionResult) -> tuple:
    """A region's time and per-worker stats, for run-to-run determinism checks."""
    return (
        res.time,
        tuple((w.busy, w.overhead, w.tasks, w.steals) for w in res.workers),
    )


def _tol(scale: float) -> float:
    """Comparison slack appropriate for a quantity of magnitude ``scale``."""
    return _RTOL * abs(scale) + _ATOL


# ---------------------------------------------------------------------------
# Primitive log checks
# ---------------------------------------------------------------------------
def check_intervals(
    intervals: Iterable[tuple[int, float, float, str]],
    nworkers: Optional[int],
    *,
    horizon: Optional[float] = None,
    report: Optional[ValidationReport] = None,
    where: str = "intervals",
) -> ValidationReport:
    """Audit recorded busy intervals ``(worker, start, end, tag)``.

    Checks: worker ids in ``0..nworkers-1`` (``None``: the caller
    bounds them), intervals well-ordered (start <= end) and
    non-negative, within the region horizon when given, and — the key
    one — **no two intervals of the same worker overlap**.
    """
    rep = report if report is not None else ValidationReport()
    per_worker: dict[int, list[tuple[float, float]]] = {}
    for w, s, e, _tag in intervals:
        if nworkers is not None:
            rep.check(0 <= w < nworkers, "interval-worker-range", where,
                      f"worker {w} outside 0..{nworkers - 1}")
        rep.check(s >= -_ATOL, "interval-nonnegative", where,
                  f"worker {w} interval starts at {s}")
        rep.check(e >= s - _tol(e), "interval-ordered", where,
                  f"worker {w} interval [{s}, {e}) ends before it starts")
        if horizon is not None:
            rep.check(e <= horizon + _tol(horizon), "interval-horizon", where,
                      f"worker {w} interval ends at {e} past horizon {horizon}")
        per_worker.setdefault(w, []).append((s, e))
    for w, ivs in per_worker.items():
        ivs.sort()
        prev_end = 0.0
        prev = None
        for s, e in ivs:
            if prev is not None:
                rep.check(
                    s >= prev_end - _tol(prev_end),
                    "interval-overlap",
                    where,
                    f"worker {w} busy [{s:.9g}, {e:.9g}) overlaps "
                    f"[{prev[0]:.9g}, {prev[1]:.9g})",
                )
            prev_end = max(prev_end, e)
            prev = (s, e)
    return rep


def check_lock_log(
    log: Sequence[tuple[float, float, float]],
    *,
    report: Optional[ValidationReport] = None,
    where: str = "lock",
) -> ValidationReport:
    """Audit a :class:`~repro.sim.engine.SimLock` grant log.

    Entries are ``(request, grant, hold)``.  Checks causality (no grant
    before its request, no negative hold) and mutual exclusion: sorted
    by grant time, each grant window ``[grant, grant + hold)`` must not
    overlap the previous one.
    """
    rep = report if report is not None else ValidationReport()
    for req, grant, hold in log:
        rep.check(grant >= req - _tol(req), "lock-causality", where,
                  f"granted at {grant} before request at {req}")
        rep.check(hold >= 0.0, "lock-hold-nonnegative", where, f"hold {hold} < 0")
    ordered = sorted(log, key=lambda entry: entry[1])
    prev_release = 0.0
    for _req, grant, hold in ordered:
        rep.check(
            grant >= prev_release - _tol(prev_release),
            "lock-exclusivity",
            where,
            f"grant at {grant:.9g} inside previous hold ending {prev_release:.9g}",
        )
        prev_release = max(prev_release, grant + hold)
    return rep


def check_event_times(
    events: Sequence[tuple[float, int]],
    *,
    report: Optional[ValidationReport] = None,
    where: str = "engine",
) -> ValidationReport:
    """Audit one engine's region-local event log ``(time, seq)``.

    The simulated clock must never run backwards, and simultaneous
    events must fire in insertion order (the determinism guarantee the
    whole reproduction rests on).
    """
    rep = report if report is not None else ValidationReport()
    _check_clock(events, rep, where, strict=True)
    return rep


def _check_clock(events, rep: ValidationReport, where: str, *, strict: bool) -> None:
    """Hold ``(time, seq)`` pairs to a clock that never runs backwards;
    a tie must keep insertion order (``strict``) or be a distinct pair."""
    prev_t, prev_seq = None, None
    for t, seq in events:
        if prev_t is not None:
            rep.check(t >= prev_t, "event-monotonic", where,
                      f"clock went backwards: {prev_t} -> {t}")
            if t == prev_t:
                if strict:
                    rep.check(seq > prev_seq, "event-tie-order", where,
                              f"tie at t={t} fired seq {seq} after seq {prev_seq}")
                else:
                    rep.check(seq != prev_seq, "event-tie-order", where,
                              f"duplicate event (t={t}, seq={seq})")
        prev_t, prev_seq = t, seq


# ---------------------------------------------------------------------------
# Work-conservation envelope
# ---------------------------------------------------------------------------
def busy_envelope(
    work: float,
    membytes: float,
    locality: float,
    p_eff: int,
    ctx: ExecContext,
    *,
    locality_min: Optional[float] = None,
) -> tuple[float, float]:
    """Bounds on total busy seconds for executing (``work``, ``membytes``).

    Lower bound: per-thread compute speed never exceeds 1.0 and
    per-thread bandwidth never exceeds the single-thread figure, and the
    roofline takes the max of the two terms, so total busy can never be
    below ``max(work, membytes / bw(1))``.  Upper bound: the slowest
    regime any of up to ``p_eff`` concurrently active threads can be in
    (SMT sharing, oversubscription, saturated bandwidth), with compute
    and memory fully serialized.  Anything outside this envelope dropped
    or invented work.

    When the bytes carry mixed access localities, ``locality`` must be
    the *best* (highest) one present — it bounds bandwidth from above for
    the lower edge — and ``locality_min`` the worst, for the upper edge.
    """
    machine = ctx.machine
    lower = work
    upper = 0.0
    # candidate active-thread counts: bandwidth share is not monotone
    # (socket spanning adds aggregate bandwidth), so scan the range.
    scan = min(p_eff, 4 * machine.hw_threads)
    candidates = set(range(1, scan + 1))
    candidates.add(p_eff)
    min_speed = min(machine.compute_speed(a) for a in candidates)
    upper = work / min_speed
    if membytes > 0:
        bw_best = machine.bandwidth_per_thread(1, locality)
        lower = max(lower, membytes / bw_best)
        loc_lo = locality if locality_min is None else locality_min
        bw_worst = min(machine.bandwidth_per_thread(a, loc_lo) for a in candidates)
        upper += membytes / bw_worst
    return lower, upper


# ---------------------------------------------------------------------------
# Region / result checks
# ---------------------------------------------------------------------------
def check_region(
    region: RegionResult,
    *,
    ctx: Optional[ExecContext] = None,
    report: Optional[ValidationReport] = None,
    where: str = "region",
) -> ValidationReport:
    """Audit one :class:`~repro.sim.trace.RegionResult`.

    Structural checks always run; work conservation and throughput caps
    additionally need ``ctx`` (for the machine model) and the
    ``expected_work``/``expected_bytes`` meta the executors record.
    Interval, lock and event audits run on the region's event trace
    (:func:`check_trace`).
    """
    rep = report if report is not None else ValidationReport()
    meta = region.meta or {}
    time = region.time
    aggregate = bool(meta.get("aggregate_workers"))
    p_eff = max(region.nthreads, len(region.workers), 1)

    rep.check(time >= -_ATOL, "region-time-nonnegative", where, f"time {time} < 0")
    rep.check(region.nthreads >= 1, "region-nthreads-positive", where,
              f"nthreads {region.nthreads}")

    total_busy = 0.0
    max_busy = 0.0
    for i, w in enumerate(region.workers):
        wtag = f"{where} worker[{i}]"
        rep.check(w.busy >= -_ATOL and w.overhead >= -_ATOL,
                  "worker-stats-nonnegative", wtag,
                  f"busy={w.busy} overhead={w.overhead}")
        rep.check(w.tasks >= 0 and w.steals >= 0,
                  "worker-counts-nonnegative", wtag,
                  f"tasks={w.tasks} steals={w.steals}")
        if not aggregate:
            rep.check(
                w.busy + w.overhead <= time + _tol(time),
                "worker-wallclock",
                wtag,
                f"busy+overhead {w.busy + w.overhead:.9g} exceeds region time {time:.9g}",
            )
        total_busy += w.busy
        max_busy = max(max_busy, w.busy)

    # Aggregate throughput: the whole machine cannot deliver more busy
    # seconds than (workers) x (wall clock).
    if aggregate and ctx is not None:
        cap = max(float(p_eff), ctx.machine.physical_cores * ctx.machine.smt_throughput)
    else:
        cap = float(p_eff)
    rep.check(
        total_busy <= time * cap + _tol(time * cap),
        "aggregate-throughput",
        where,
        f"busy {total_busy:.9g} > {cap:.0f} workers x time {time:.9g}",
    )
    if region.workers and not aggregate:
        rep.check(time >= max_busy - _tol(max_busy), "makespan-worker", where,
                  f"time {time:.9g} below busiest worker {max_busy:.9g}")

    fault = meta.get("fault")
    fault_fired = bool(fault) and bool(
        fault.get("triggered") or fault.get("cancelled") or fault.get("skipped")
    )

    cp = meta.get("critical_path")
    if cp is not None and not fault_fired:
        # a cancelled/degraded region legitimately finishes off the
        # fault-free critical path (early on cancel, late on slowdown)
        rep.check(time >= cp - _tol(cp), "makespan-critical-path", where,
                  f"time {time:.9g} below critical path {cp:.9g}")

    if fault:
        useful = float(fault.get("useful", 0.0))
        wasted = float(fault.get("wasted", 0.0))
        rep.check(
            abs(useful + wasted - total_busy) <= _tol(total_busy) + _tol(useful + wasted),
            "fault-accounting",
            where,
            f"useful {useful:.9g} + wasted {wasted:.9g} != busy {total_busy:.9g}",
        )
        if fault.get("failed"):
            rep.check(useful <= _tol(wasted), "fault-failed-no-useful", where,
                      f"failed attempt credits useful work {useful:.9g}")
        if fault.get("cancelled"):
            issued = int(fault.get("issued_after_cancel", 0))
            rep.check(issued == 0, "fault-cancel-issues", where,
                      f"{issued} work items issued after the cancellation point")
            cancel_time = float(fault.get("cancel_time", 0.0))
            rep.check(cancel_time <= time + _tol(time), "fault-cancel-time", where,
                      f"cancel at {cancel_time:.9g} after region end {time:.9g}")

    expected = meta.get("expected_work")
    if expected is not None and ctx is not None and not fault_fired:
        membytes = float(meta.get("expected_bytes", 0.0))
        locality = float(meta.get("expected_locality", 1.0))
        loc_min = meta.get("expected_locality_min")
        lower, upper = busy_envelope(
            expected, membytes, locality, p_eff, ctx,
            locality_min=None if loc_min is None else float(loc_min),
        )
        if aggregate:
            # aggregate stats record raw work seconds (the coarse
            # thread-per-task model), so only pure work bounds it below
            lower = min(lower, expected)
        rep.check(
            total_busy >= lower - _tol(lower),
            "work-conservation-lower",
            where,
            f"busy {total_busy:.9g} below minimum {lower:.9g} "
            f"(work {expected:.9g}, bytes {membytes:.9g}) — work was dropped",
        )
        rep.check(
            total_busy <= upper + _tol(upper),
            "work-conservation-upper",
            where,
            f"busy {total_busy:.9g} above maximum {upper:.9g} "
            f"(work {expected:.9g}, bytes {membytes:.9g}) — work was invented",
        )

    return rep


def check_trace(
    tracer,
    regions: Sequence[RegionResult],
    *,
    horizon: Optional[float] = None,
    report: Optional[ValidationReport] = None,
    where: str = "trace",
) -> ValidationReport:
    """Audit a :class:`~repro.obs.tracer.Tracer` against the region
    results it covers, in run order: ``[result]`` for one executor run,
    ``result.regions`` for a program (:func:`check_result` does this).

    Execution spans (task/chunk/serial/kernel/transfer) are held to the
    per-worker no-overlap invariant and must sit on a row of their
    region's workers (any row >= 0 in an aggregate, thread-per-task
    region, which draws one row per task), and every other span (steals, lock
    waits, barriers) to well-formedness only — a worker legitimately
    waits on the same row it later executes on.  Spans end by
    ``horizon`` (default: the regions' summed time).  Every recorded
    lock's grant log is checked for causality and mutual exclusion.

    The engine events are cut into one slice per region, sized by the
    region's ``meta["events"]`` (how many its event loop popped), and
    each slice is held to a monotonic clock: a loop may pop leftover
    wake-ups after its region's reported end, where the next region's
    offset begins.  Adding that offset can round two region-local times
    onto one float, so a tie inside a slice need only be a distinct
    ``(time, seq)`` pair (:func:`check_event_times` holds one loop's
    region-local log to strict insertion order).

    Last, each non-aggregate region's per-worker execution-span seconds
    must equal the busy seconds its ``WorkerStats`` claim.
    """
    rep = report if report is not None else ValidationReport()
    if horizon is None:
        horizon = sum(r.time for r in regions)
    # an executor run outside a program begins no region: its spans
    # carry index -1 and belong to its one result
    single = not tracer.region_names and len(regions) == 1
    rep.check(
        single or len(tracer.region_names) == len(regions), "trace-regions", where,
        f"{len(tracer.region_names)} traced regions, {len(regions)} results",
    )
    busy = [[0.0] * len(r.workers) for r in regions]
    # a thread-per-task (aggregate) region draws one row per task, not
    # per worker: its rows have no upper bound
    rows = [
        None if (r.meta or {}).get("aggregate_workers") else len(r.workers)
        for r in regions
    ]
    intervals = []
    for s in tracer.spans:
        if s.kind in EXEC_KINDS:
            intervals.append((s.worker, s.start, s.end, s.name or s.kind))
            k = 0 if single else s.region
            n = rows[k] if 0 <= k < len(rows) else 0
            if rep.check(0 <= s.worker and (n is None or s.worker < n),
                         "interval-worker-range", f"{where} exec",
                         f"region[{k}] worker {s.worker} not in 0..{'' if n is None else n - 1}"):
                if n is not None:
                    busy[k][s.worker] += s.end - s.start
            continue
        tag = f"{where} {s.kind}"
        rep.check(s.start >= -_ATOL, "span-nonnegative", tag,
                  f"worker {s.worker} span starts at {s.start}")
        rep.check(s.end >= s.start - _tol(s.end), "span-ordered", tag,
                  f"worker {s.worker} span [{s.start}, {s.end}) ends before it starts")
        rep.check(s.end <= horizon + _tol(horizon), "span-horizon", tag,
                  f"worker {s.worker} span ends at {s.end} past horizon {horizon}")
    check_intervals(intervals, None, horizon=horizon, report=rep, where=f"{where} exec")
    for name, log in sorted(tracer.lock_events.items()):
        check_lock_log(log, report=rep, where=f"{where} {name}")

    events = tracer.engine_events
    sizes = [int((r.meta or {}).get("events", 0)) for r in regions]
    if rep.check(sum(sizes) == len(events), "event-count", f"{where} engine",
                 f"{len(events)} engine events, regions' meta['events'] sum to {sum(sizes)}"):
        start = 0
        for i, n in enumerate(sizes):
            _check_clock(events[start:start + n], rep, f"{where} region[{i}] engine",
                         strict=False)
            start += n

    for i, (r, sums) in enumerate(zip(regions, busy)):
        if (r.meta or {}).get("aggregate_workers"):
            continue
        for w, (stats, got) in enumerate(zip(r.workers, sums)):
            rep.check(
                abs(stats.busy - got) <= _tol(stats.busy),
                "trace-busy-mismatch",
                f"{where} region[{i}] worker[{w}]",
                f"stats busy {stats.busy:.9g} != traced exec spans {got:.9g}",
            )
    return rep


def check_result(
    result: SimResult,
    *,
    ctx: Optional[ExecContext] = None,
    report: Optional[ValidationReport] = None,
    where: Optional[str] = None,
) -> ValidationReport:
    """Audit a full :class:`~repro.sim.trace.SimResult`.

    Runs :func:`check_region` on every region and checks program-level
    consistency: non-negative total time that covers the sum of region
    times (program-level costs like pool setup may only add).  A traced
    result's tracer is audited against its regions (:func:`check_trace`).
    """
    rep = report if report is not None else ValidationReport()
    tag = where or f"{result.program}/{result.version} p={result.nthreads}"
    rep.check(result.time >= -_ATOL, "program-time-nonnegative", tag,
              f"time {result.time}")
    rep.check(result.nthreads >= 1, "program-nthreads-positive", tag,
              f"nthreads {result.nthreads}")
    region_sum = sum(r.time for r in result.regions)
    rep.check(
        result.time >= region_sum - _tol(region_sum),
        "program-time-covers-regions",
        tag,
        f"program time {result.time:.9g} below region sum {region_sum:.9g}",
    )
    for i, region in enumerate(result.regions):
        check_region(region, ctx=ctx, report=rep, where=f"{tag} region[{i}]")
    if result.trace is not None:
        check_trace(result.trace, result.regions, horizon=result.time, report=rep,
                    where=f"{tag} trace")

    # Retry idempotency: under a fault plan each source region may appear
    # several times (one RegionResult per attempt, grouped by the
    # ``region_index`` the runner records).  Once an attempt succeeds the
    # runner must stop retrying — useful work is never re-executed.
    attempts: dict[int, list[bool]] = {}
    for region in result.regions:
        meta = region.meta or {}
        if "region_index" not in meta:
            continue
        failed = bool((meta.get("fault") or {}).get("failed"))
        attempts.setdefault(int(meta["region_index"]), []).append(failed)
    for index, failures in sorted(attempts.items()):
        succeeded = [i for i, failed in enumerate(failures) if not failed]
        rep.check(
            len(succeeded) <= 1 and (not succeeded or succeeded[0] == len(failures) - 1),
            "fault-retry-idempotent",
            f"{tag} region_index={index}",
            f"attempt outcomes (failed?) {failures}: work re-ran after a success",
        )
    return rep


def check_graphs(
    program: Program,
    nthreads: int,
    *,
    report: Optional[ValidationReport] = None,
    where: Optional[str] = None,
) -> ValidationReport:
    """Audit the task graphs ``program`` builds at ``nthreads``: each
    :class:`~repro.sim.task.TaskRegion`'s graph passes
    :meth:`~repro.sim.task.TaskGraph.validate`."""
    rep = report if report is not None else ValidationReport()
    tag = where or f"{program.name} p={nthreads}"
    for i, region in enumerate(program):
        if isinstance(region, TaskRegion):
            try:
                region.graph_for(nthreads).validate()
                detail = ""
            except ValueError as exc:
                detail = str(exc)
            rep.check(not detail, "graph-structure", f"{tag} region[{i}]", detail)
    return rep
