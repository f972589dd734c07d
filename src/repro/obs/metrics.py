"""Metrics registry: counters, gauges and histograms over simulation runs.

The registry is deliberately tiny and dependency-free — the point is a
*uniform* namespace ("steals", "lock_wait_seconds", "load_imbalance")
that every result exposes the same way, so benchmark tooling and the
bottleneck attribution report can consume any run without knowing which
runtime produced it.

:func:`region_metrics` derives a registry from one
:class:`~repro.sim.trace.RegionResult` (worker stats + executor meta);
:func:`result_metrics` folds a whole :class:`~repro.sim.trace.SimResult`.
Both are pure arithmetic over already-recorded statistics: they cost
nothing at simulation time and can be applied retroactively to any
result, traced or not.
"""

from __future__ import annotations

import math
from typing import Any, Optional

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "region_metrics",
    "result_metrics",
]


class Counter:
    """A monotonically increasing count (steals, tasks, grants)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        if n < 0:
            raise ValueError("counters only increase")
        self.value += n


class Gauge:
    """A point-in-time scalar (utilization, imbalance, overhead ratio)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, v: float) -> None:
        self.value = float(v)

    def add(self, v: float) -> None:
        self.value += float(v)


#: Histogram buckets per doubling: bucket ``k`` holds the values in
#: ``[2^(k/8), 2^((k+1)/8))``, so the bucket's geometric midpoint is
#: within a factor ``2^(1/16)`` (4.43%) of every value in it.
_PER_OCTAVE = 8
#: The bucket of every value <= 0 (below the index of any positive float).
_ZERO_BUCKET = -(1 << 62)


class Histogram:
    """Mergeable distribution: count/total/min/max/mean plus quantiles.

    Values land in sparse log-spaced buckets (ratio ``2^(1/8)``), so
    :meth:`merge` adds bucket counts — exact and associative, whatever
    the order pool workers or nested recordings are folded in — and
    :meth:`quantile` is within 4.43% of the nearest-rank value.
    """

    __slots__ = ("name", "count", "total", "min", "max", "buckets")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.buckets: dict[int, int] = {}

    def observe(self, v: float) -> None:
        v = float(v)
        self.count += 1
        self.total += v
        if v < self.min:
            self.min = v
        if v > self.max:
            self.max = v
        k = math.floor(math.log2(v) * _PER_OCTAVE) if v > 0.0 else _ZERO_BUCKET
        self.buckets[k] = self.buckets.get(k, 0) + 1

    def merge(self, other: "Histogram") -> "Histogram":
        """Fold ``other`` in (bucket counts add)."""
        self.count += other.count
        self.total += other.total
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)
        for k, n in other.buckets.items():
            self.buckets[k] = self.buckets.get(k, 0) + n
        return self

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """The ``q``-quantile: the geometric midpoint of the bucket that
        holds the nearest-rank value, clamped to ``[min, max]``."""
        if not self.count:
            return 0.0
        rank = max(1, math.ceil(q * self.count))
        seen = 0
        for k in sorted(self.buckets):
            seen += self.buckets[k]
            if seen >= rank:
                break
        mid = 0.0 if k == _ZERO_BUCKET else 2.0 ** ((k + 0.5) / _PER_OCTAVE)
        return min(max(mid, self.min), self.max)

    def to_dict(self) -> dict[str, float]:
        if not self.count:
            return {"count": 0, "total": 0.0, "min": 0.0, "max": 0.0, "mean": 0.0,
                    "p50": 0.0, "p90": 0.0, "p99": 0.0}
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "p50": self.quantile(0.5),
            "p90": self.quantile(0.9),
            "p99": self.quantile(0.99),
        }


class MetricsRegistry:
    """Named counters/gauges/histograms with get-or-create semantics."""

    __slots__ = ("counters", "gauges", "histograms")

    def __init__(self) -> None:
        self.counters: dict[str, Counter] = {}
        self.gauges: dict[str, Gauge] = {}
        self.histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        c = self.counters.get(name)
        if c is None:
            c = self.counters[name] = Counter(name)
        return c

    def gauge(self, name: str) -> Gauge:
        g = self.gauges.get(name)
        if g is None:
            g = self.gauges[name] = Gauge(name)
        return g

    def histogram(self, name: str) -> Histogram:
        h = self.histograms.get(name)
        if h is None:
            h = self.histograms[name] = Histogram(name)
        return h

    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Fold ``other`` in: counters add, gauges accumulate, histograms
        merge."""
        for name, c in other.counters.items():
            self.counter(name).inc(c.value)
        for name, g in other.gauges.items():
            self.gauge(name).add(g.value)
        for name, h in other.histograms.items():
            self.histogram(name).merge(h)
        return self

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready snapshot."""
        return {
            "counters": {n: c.value for n, c in sorted(self.counters.items())},
            "gauges": {n: g.value for n, g in sorted(self.gauges.items())},
            "histograms": {n: h.to_dict() for n, h in sorted(self.histograms.items())},
        }

    def describe(self) -> str:
        lines = ["metrics:"]
        for n, c in sorted(self.counters.items()):
            lines.append(f"  {n:<28} {c.value}")
        for n, g in sorted(self.gauges.items()):
            lines.append(f"  {n:<28} {g.value:.6g}")
        for n, h in sorted(self.histograms.items()):
            d = h.to_dict()
            lines.append(
                f"  {n:<28} n={d['count']} mean={d['mean']:.3g} "
                f"min={d['min']:.3g} max={d['max']:.3g}"
            )
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Derivation from simulation results (duck-typed: anything with .workers,
# .time, .nthreads, .meta works — avoids an import cycle with sim.trace)
# ---------------------------------------------------------------------------
def _imbalance(busies: list[float]) -> float:
    """Load imbalance: max worker busy over mean worker busy (1.0 = flat)."""
    active = [b for b in busies if b > 0]
    if not active:
        return 1.0
    mean = sum(active) / len(active)
    return max(active) / mean if mean > 0 else 1.0


def region_metrics(region: Any, registry: Optional[MetricsRegistry] = None) -> MetricsRegistry:
    """Derive the standard metrics of one region execution."""
    m = registry if registry is not None else MetricsRegistry()
    meta = region.meta or {}
    busies = [w.busy for w in region.workers]
    busy = sum(busies)
    overhead = sum(w.overhead for w in region.workers)

    m.counter("tasks").inc(sum(w.tasks for w in region.workers))
    m.counter("steals").inc(sum(w.steals for w in region.workers))
    m.counter("regions").inc()
    m.counter("engine_events").inc(int(meta.get("events", 0)))

    m.gauge("busy_seconds").add(busy)
    m.gauge("overhead_seconds").add(overhead)
    m.gauge("lock_wait_seconds").add(float(meta.get("lock_wait", 0.0)))
    m.gauge("steal_seconds").add(float(meta.get("steal_time", 0.0)))

    fault = meta.get("fault")
    if fault:
        # graceful-degradation accounting (repro.faults): useful vs.
        # wasted vs. recovery work, per region attempt
        m.counter("faults_injected").inc(len(fault.get("triggered", ())))
        if fault.get("failed"):
            m.counter("region_failures").inc()
        if fault.get("cancelled"):
            m.counter("regions_cancelled").inc()
        if fault.get("recovery", 0.0) > 0.0:
            m.counter("retries").inc()
        m.counter("skipped_items").inc(int(fault.get("skipped", 0)))
        m.gauge("useful_work_seconds").add(float(fault.get("useful", 0.0)))
        m.gauge("wasted_work_seconds").add(float(fault.get("wasted", 0.0)))
        m.gauge("recovery_seconds").add(float(fault.get("recovery", 0.0)))
    else:
        m.gauge("useful_work_seconds").add(busy)

    p = max(1, region.nthreads)
    denom = region.time * p
    if denom > 0:
        m.histogram("region_utilization").observe(busy / denom)
    m.histogram("load_imbalance").observe(_imbalance(busies))
    depth = meta.get("max_deque_depth")
    if depth is not None:
        m.histogram("deque_depth_max").observe(float(depth))
    for w in region.workers:
        if w.busy or w.tasks:
            m.histogram("worker_busy_seconds").observe(w.busy)
    return m


def result_metrics(result: Any) -> MetricsRegistry:
    """Derive the standard metrics of a whole program run.

    Region registries are merged, then program-level gauges (overhead
    ratio, utilization, imbalance across the run) are recomputed from
    the totals so they are true ratios rather than sums of ratios.
    """
    m = MetricsRegistry()
    for region in result.regions:
        region_metrics(region, m)
    busy = m.gauge("busy_seconds").value
    overhead = m.gauge("overhead_seconds").value
    p = max(1, result.nthreads)
    denom = result.time * p
    m.gauge("sim_time_seconds").set(result.time)
    m.gauge("utilization").set(busy / denom if denom > 0 else 0.0)
    m.gauge("overhead_ratio").set(overhead / busy if busy > 0 else 0.0)
    m.gauge("idle_seconds").set(max(0.0, denom - busy - overhead))
    return m
