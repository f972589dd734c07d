"""Ranked host-cost attribution — the obs bottleneck report's real-time twin.

:func:`attribute_host` decomposes a recording's total host wall time
into the same kind of ranked, narrated table that
:func:`repro.obs.report.attribute_result` produces for simulated time:

- **simulate** — running the discrete-event simulator (tier-2 cells);
- **estimate** — tier-0 closed-form estimation;
- **cache** — content-addressed cache probes, stores and eviction;
- **codec** — JSON encode/decode of results and traces;
- **fanout** — process-pool setup, submission and result waiting;
- **other** — everything unattributed (driver loop, imports, GC).

The category map is explicit so nested detail spans (``engine.drain``
inside a ``cell.simulate``, ``tier0.estimate`` inside
``cell.estimate``) are reported as detail without being double-counted
in the top-level split.  ``coverage`` is the attributed (non-other)
share — the executor's instrumentation keeps it >= 95% for a sweep
(asserted by ``tests/test_perf_report.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Optional

from repro.perf.spans import PerfRecorder

__all__ = ["HostAttributionEntry", "HostAttributionReport", "attribute_host"]

#: Top-level category -> the executor spans that compose it.  Spans not
#: named here (engine.drain, validate.*, ...) are nested detail.
CATEGORY_SPANS: dict[str, tuple[str, ...]] = {
    "simulate": ("cell.simulate",),
    "estimate": ("cell.estimate",),
    "cache": ("cache.key", "cache.probe", "cache.store", "cache.prune"),
    "codec": ("codec.encode", "codec.decode"),
    "fanout": ("fanout.pool", "fanout.submit", "fanout.wait"),
}

#: Category -> why that host time exists.
_NARRATIVE = {
    "simulate": "running the discrete-event simulator",
    "estimate": "tier-0 closed-form estimation",
    "cache": "content-addressed cache: keying, probes, stores, eviction",
    "codec": "JSON encode/decode of results and traces",
    "fanout": "process-pool setup, submission and result waiting",
    "other": "unattributed driver time: loop bookkeeping, imports, GC",
}

_DETAIL_SPANS = frozenset(
    name for names in CATEGORY_SPANS.values() for name in names
)


@dataclass(frozen=True)
class HostAttributionEntry:
    """One ranked row of the host-cost split."""

    category: str
    seconds: float
    share: float

    def __str__(self) -> str:
        return (
            f"{self.category:<9} {self.seconds * 1e3:10.3f}ms  {self.share:6.1%}  "
            f"{_NARRATIVE.get(self.category, '')}"
        )


@dataclass
class HostAttributionReport:
    """Where one recording's host wall seconds went, ranked."""

    name: str
    wall: float
    cpu: float
    entries: list[HostAttributionEntry] = field(default_factory=list)
    detail: list[tuple[str, float, int]] = field(default_factory=list)
    counters: dict[str, int] = field(default_factory=dict)

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
        """Attributed (non-``other``) fraction of the total wall time."""
        return 1.0 - self.share("other")

    def describe(self) -> str:
        head = (
            f"host-cost attribution — {self.name or 'run'}: "
            f"wall={self.wall * 1e3:.3f}ms cpu={self.cpu * 1e3:.3f}ms "
            f"({self.coverage:.1%} attributed)"
        )
        lines = [head]
        for e in self.entries:
            lines.append(f"  {e}")
        top = self.entries[0] if self.entries else None
        if top is not None:
            lines.append(
                f"  => dominated by {top.category} ({top.share:.1%}): "
                f"{_NARRATIVE.get(top.category, '')}"
            )
        if self.detail:
            lines.append("  detail spans:")
            for name, wall, count in self.detail:
                lines.append(f"    {name:<20} {wall * 1e3:10.3f}ms  n={count}")
        return "\n".join(lines)


def _span_walls(source: Mapping[str, Any]) -> dict[str, tuple[float, int]]:
    """``{span name: (wall seconds, count)}`` from a record's span table."""
    out: dict[str, tuple[float, int]] = {}
    for name, stat in source.items():
        if isinstance(stat, Mapping):
            out[str(name)] = (float(stat.get("wall", 0.0)), int(stat.get("count", 0)))
    return out


def attribute_host(
    source: Any, *, name: Optional[str] = None
) -> HostAttributionReport:
    """Attribute a recording's host wall time across named categories.

    ``source`` is a :class:`~repro.perf.spans.PerfRecorder`, a ledger
    record, or any mapping with ``wall_seconds``/``cpu_seconds`` and a
    ``spans`` table (e.g. ``SweepResult.perf``).  The residual between
    the total and the attributed spans is reported as ``other`` — by
    construction the categories plus ``other`` always cover 100% of the
    wall time.
    """
    if isinstance(source, PerfRecorder):
        record: Mapping[str, Any] = source.snapshot()
        label = name or source.label
    else:
        record = source
        label = name or str(record.get("name", record.get("label", "")))
    wall = float(record.get("wall_seconds", 0.0))
    cpu = float(record.get("cpu_seconds", 0.0))
    spans = _span_walls(record.get("spans") or {})

    shares: dict[str, float] = {}
    for category, members in CATEGORY_SPANS.items():
        secs = sum(spans[m][0] for m in members if m in spans)
        if secs > 0.0:
            shares[category] = secs
    attributed = sum(shares.values())
    total = wall if wall > 0.0 else attributed
    shares["other"] = max(0.0, total - attributed)

    entries = [
        HostAttributionEntry(cat, secs, secs / total if total > 0 else 0.0)
        for cat, secs in sorted(shares.items(), key=lambda kv: -kv[1])
    ]
    detail = sorted(
        (
            (spanname, swall, count)
            for spanname, (swall, count) in spans.items()
            if spanname not in _DETAIL_SPANS
        ),
        key=lambda row: -row[1],
    )
    counters = {
        str(k): int(v) for k, v in (record.get("counters") or {}).items()
    }
    return HostAttributionReport(
        name=label, wall=total, cpu=cpu, entries=entries,
        detail=detail, counters=counters,
    )
