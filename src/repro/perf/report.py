"""Ranked host-cost attribution: the obs bottleneck report over host time.

:func:`attribute_host` decomposes a recording's total host wall time
into the same :class:`~repro.obs.report.AttributionReport` that
:func:`repro.obs.report.attribute_result` returns for simulated time:

- **simulate** — running the discrete-event simulator (tier-2 cells);
- **estimate** — tier-0 closed-form estimation;
- **cache** — content-addressed cache probes, stores and eviction;
- **codec** — JSON encode/decode of results and traces;
- **fanout** — process-pool setup, submission and result waiting;
- **other** — everything unattributed (driver loop, imports, GC).

The category map is explicit so nested detail spans (``engine.drain``,
the work-stealing event loop, and ``engine.walk``, the AMT graph walk,
inside a ``cell.simulate``; ``tier0.estimate`` inside
``cell.estimate``) are reported as detail without being double-counted
in the top-level split.  ``coverage`` is the attributed (non-other)
share — the executor's instrumentation keeps it >= 95% for a sweep
(asserted by ``tests/test_perf_report.py``).
"""

from __future__ import annotations

from typing import Any, Mapping, Optional

from repro.obs.report import AttributionReport
from repro.perf.spans import PerfRecorder

__all__ = ["CATEGORY_SPANS", "attribute_host"]

#: Top-level category -> the executor spans that compose it.  Spans not
#: named here (engine.drain, engine.walk, validate.*, ...) are nested detail.
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


def _span_walls(source: Mapping[str, Any]) -> dict[str, tuple[float, int]]:
    """``{span name: (wall seconds, count)}`` from a record's span table."""
    out: dict[str, tuple[float, int]] = {}
    for name, stat in source.items():
        if isinstance(stat, Mapping):
            out[str(name)] = (float(stat.get("wall", 0.0)), int(stat.get("count", 0)))
    return out


def attribute_host(
    source: Any, *, name: Optional[str] = None
) -> AttributionReport:
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

    seconds: dict[str, float] = {}
    for category, members in CATEGORY_SPANS.items():
        secs = sum(spans[m][0] for m in members if m in spans)
        if secs > 0.0:
            seconds[category] = secs
    attributed = sum(seconds.values())
    total = wall if wall > 0.0 else attributed
    seconds["other"] = max(0.0, total - attributed)
    detail = sorted(
        (
            (spanname, swall, count)
            for spanname, (swall, count) in spans.items()
            if spanname not in _DETAIL_SPANS
        ),
        key=lambda row: -row[1],
    )
    report = AttributionReport.ranked("", total, seconds, _NARRATIVE, detail)
    report.title = (
        f"host-cost attribution — {label or 'run'}: "
        f"wall={total * 1e3:.3f}ms cpu={cpu * 1e3:.3f}ms "
        f"({report.coverage:.1%} attributed)"
    )
    return report
