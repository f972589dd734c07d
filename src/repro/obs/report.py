"""Bottleneck attribution: rank where a run's worker-seconds went.

The paper explains every cross-runtime gap causally — worksharing wins
data parallelism because chunk dispatch is cheap, ``cilk_for`` loses it
because chunk distribution happens through steals, ``omp task`` loses
Fibonacci because every deque operation takes the lock.  This module
states the same causal story for *any* simulated result by decomposing
the run's total worker-seconds (``time x nthreads``) into:

- **compute** — useful work at full core speed;
- **memory** — roofline memory-bandwidth stalls (busy time beyond the
  pure-compute seconds);
- **steal** — work-stealing overhead: victim probing and chunk/task
  distribution through steals;
- **lock** — lock contention: deque or loop-counter serialization
  (wait time on :class:`~repro.sim.engine.SimLock` queues);
- **runtime** — other scheduler overhead: spawns, dispatch, fork/join,
  thread creation;
- **idle** — imbalance: workers waiting at barriers or during ramp-up.

The split is exact where the runtimes record the quantity directly
(steal/lock/overhead/idle) and a documented roofline estimate for the
compute/memory split (pure-compute seconds = the region's
``expected_work``, which executors record for the validators).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Optional, Sequence

__all__ = ["AttributionEntry", "AttributionReport", "attribute_result"]

#: Category -> the paper's vocabulary for why that time exists.
_NARRATIVE = {
    "compute": "useful work on the cores",
    "memory": "memory-bandwidth stalls (bytes over sustainable bandwidth)",
    "steal": "work-stealing overhead: victim probing and chunk distribution through steals",
    "lock": "lock contention: deque / loop-counter serialization",
    "runtime": "other runtime overhead: spawns, dispatch, fork/join, thread creation",
    "idle": "imbalance: waiting at barriers or during ramp-up serialization",
}


@dataclass(frozen=True)
class AttributionEntry:
    """One ranked row of an attribution."""

    category: str
    seconds: float
    share: float  # fraction of the report's total


@dataclass
class AttributionReport:
    """Where one run's seconds went, ranked — simulated worker-seconds
    (:func:`attribute_result`) or host wall seconds
    (:func:`repro.perf.report.attribute_host`).

    ``title`` heads :meth:`describe`; ``reasons`` maps each category to
    why that time exists; ``detail`` lists ``(name, seconds, count)``
    rows shown under the ranking (the host plane's nested spans).  The
    ``other`` row, when present, is time no category claims.
    """

    title: str
    total: float
    entries: list[AttributionEntry]
    reasons: Mapping[str, str]
    detail: list[tuple[str, float, int]] = field(default_factory=list)

    @classmethod
    def ranked(cls, title: str, total: float, seconds: Mapping[str, float],
               reasons: Mapping[str, str],
               detail: Sequence[tuple[str, float, int]] = ()) -> "AttributionReport":
        """Rank ``{category: seconds}`` (largest first) as shares of ``total``."""
        entries = [
            AttributionEntry(cat, secs, secs / total if total > 0 else 0.0)
            for cat, secs in sorted(seconds.items(), key=lambda kv: -kv[1])
        ]
        return cls(title, total, entries, reasons, list(detail))

    def share(self, category: str) -> float:
        for e in self.entries:
            if e.category == category:
                return e.share
        return 0.0

    def seconds(self, category: str) -> float:
        for e in self.entries:
            if e.category == category:
                return e.seconds
        return 0.0

    @property
    def top(self) -> str:
        return self.entries[0].category if self.entries else "other"

    @property
    def coverage(self) -> float:
        """Attributed (non-``other``) fraction of the total."""
        return 1.0 - self.share("other")

    def describe(self) -> str:
        lines = [self.title]
        for e in self.entries:
            lines.append(
                f"  {e.category:<8} {e.seconds * 1e3:10.4f}ms  {e.share:6.1%}  "
                f"{self.reasons.get(e.category, '')}"
            )
        if self.entries:
            top = self.entries[0]
            lines.append(
                f"  => dominated by {top.category} ({top.share:.1%}): "
                f"{self.reasons.get(top.category, '')}"
            )
        if self.detail:
            lines.append("  detail spans:")
            for name, secs, count in self.detail:
                lines.append(f"    {name:<20} {secs * 1e3:10.3f}ms  n={count}")
        return "\n".join(lines)


def _region_compute_seconds(region: Any) -> float:
    """Pure-compute seconds of one region (roofline lower edge).

    Executors record ``expected_work`` — the region's work in seconds at
    full core speed — for the work-conservation invariant; busy time at
    or above it is memory stall / SMT sharing.  Without the annotation
    the whole busy time is attributed to compute.
    """
    busy = sum(w.busy for w in region.workers)
    expected = region.meta.get("expected_work") if region.meta else None
    if expected is None:
        return busy
    return min(busy, float(expected))


def attribute_result(
    result: Any,
    ctx: Optional[Any] = None,
    *,
    program: str = "",
    version: str = "",
) -> AttributionReport:
    """Decompose a :class:`~repro.sim.trace.SimResult` (or a single
    region result) into ranked bottleneck categories.

    ``ctx`` is accepted for signature stability (future splits may use
    the machine model); the current decomposition needs only what the
    runtimes already record.
    """
    regions = getattr(result, "regions", None)
    if regions is None:
        regions = [result]
    p = max(1, result.nthreads)
    time = result.time
    total = time * p

    busy = 0.0
    compute = 0.0
    overhead = 0.0
    steal = 0.0
    lock = 0.0
    for region in regions:
        busy += sum(w.busy for w in region.workers)
        compute += _region_compute_seconds(region)
        overhead += sum(w.overhead for w in region.workers)
        meta = region.meta or {}
        steal += float(meta.get("steal_time", 0.0))
        lock += float(meta.get("lock_wait", 0.0))
    memory = max(0.0, busy - compute)
    # steal/lock seconds are accounted inside worker overhead where the
    # event-driven scheduler recorded them; keep the categories disjoint.
    other = max(0.0, overhead - steal - lock)
    idle = max(0.0, total - busy - overhead)

    seconds = {
        "compute": compute,
        "memory": memory,
        "steal": steal,
        "lock": lock,
        "runtime": other,
        "idle": idle,
    }
    program = program or getattr(result, "program", "")
    version = version or getattr(result, "version", "")
    title = (
        f"bottleneck attribution — {program}/{version} p={result.nthreads}: "
        f"t={time * 1e3:.3f}ms, {total * 1e3:.3f}ms worker-seconds"
    )
    return AttributionReport.ranked(title, total, seconds, _NARRATIVE)
