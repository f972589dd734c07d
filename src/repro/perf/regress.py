"""Performance-regression tracking against committed baselines.

A **baseline** is a committed reference cost under
``benchmarks/baselines/``: deterministic JSON (sorted keys, rounded
values, *no timestamps*) written by ``repro perf record --update-baseline``
and compared against by :func:`compare` / ``repro perf compare``.  Run
history lives only in the ledger (:mod:`repro.perf.ledger`):
``repro perf ledger --name …`` shows how one subject's cost has moved.

:func:`compare` is deliberately one-sided: a run is a regression when a
metric exceeds ``baseline * (1 + tolerance)``; being faster than the
baseline is never an error.  Near-zero baselines (zero-time cells,
sub-resolution spans) are compared against the absolute floor instead
of a ratio, so a 0.0 baseline neither divides by zero nor fails on
clock noise.
"""

from __future__ import annotations

import json
import math
import pathlib
import re
from dataclasses import dataclass, field
from typing import Any, Mapping, Optional, Sequence, Union

__all__ = [
    "BASELINE_DIR",
    "MissingBaselineError",
    "RegressionCheck",
    "RegressionReport",
    "baseline_path",
    "compare",
    "load_baseline",
    "slugify",
    "write_baseline",
]

#: Committed reference costs live here (tracked in git).
BASELINE_DIR = pathlib.Path("benchmarks") / "baselines"

#: Baseline layout version.
BASELINE_SCHEMA = 1

#: Below this many seconds a metric is "zero": host-clock noise, not signal.
ZERO_FLOOR = 1e-6

#: Default headroom: fail only beyond 50% over the baseline.
DEFAULT_TOLERANCE = 0.5

#: Metrics compared by default (top-level ledger-record keys).
DEFAULT_METRICS = ("wall_seconds", "cpu_seconds")


class MissingBaselineError(FileNotFoundError):
    """No committed baseline exists for the requested subject."""


def slugify(name: str) -> str:
    """Filesystem-safe form of a record name (``sweep:axpy`` -> ``sweep_axpy``)."""
    return re.sub(r"[^A-Za-z0-9_.-]+", "_", name).strip("_") or "run"


# ---------------------------------------------------------------------------
# baselines
# ---------------------------------------------------------------------------
def baseline_path(
    name: str, root: Union[str, pathlib.Path] = BASELINE_DIR
) -> pathlib.Path:
    return pathlib.Path(root) / f"{slugify(name)}.json"


def write_baseline(
    name: str,
    metrics: Mapping[str, float],
    *,
    root: Union[str, pathlib.Path] = BASELINE_DIR,
    meta: Optional[Mapping[str, Any]] = None,
) -> pathlib.Path:
    """Write a committed-quality baseline: sorted keys, rounded, no timestamps.

    Values are rounded to microseconds so regenerating a baseline on
    the same machine produces a stable diff; anything that would make
    the file nondeterministic (timestamps, raw env dumps) is excluded
    by construction.
    """
    doc: dict[str, Any] = {
        "schema": BASELINE_SCHEMA,
        "name": str(name),
        "metrics": {
            str(k): round(float(v), 6) for k, v in sorted(metrics.items())
        },
    }
    if meta:
        doc["meta"] = {str(k): meta[k] for k in sorted(meta)}
    path = baseline_path(name, root)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n")
    return path


def load_baseline(
    name_or_path: Union[str, pathlib.Path],
    root: Union[str, pathlib.Path] = BASELINE_DIR,
) -> dict[str, Any]:
    """Load a baseline by subject name or explicit path.

    Raises :class:`MissingBaselineError` when absent and ``ValueError``
    when present but not a valid baseline document.
    """
    path = pathlib.Path(name_or_path)
    if path.suffix != ".json" or not path.exists():
        candidate = baseline_path(str(name_or_path), root)
        if candidate.exists():
            path = candidate
    try:
        doc = json.loads(path.read_text())
    except FileNotFoundError:
        raise MissingBaselineError(
            f"no baseline for {name_or_path!r} (looked at {path})"
        ) from None
    except ValueError as exc:
        raise ValueError(f"baseline {path} is not valid JSON: {exc}") from None
    if not isinstance(doc, dict) or not isinstance(doc.get("metrics"), dict):
        raise ValueError(f"baseline {path} has no 'metrics' mapping")
    return doc


# ---------------------------------------------------------------------------
# comparison
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class RegressionCheck:
    """One metric's verdict."""

    metric: str
    baseline: float
    current: float
    ratio: float  # current / baseline (inf when baseline ~ 0 and current isn't)
    limit: float  # baseline * (1 + tolerance)
    ok: bool

    def __str__(self) -> str:
        ratio = "inf" if math.isinf(self.ratio) else f"{self.ratio:.2f}x"
        verdict = "ok" if self.ok else "REGRESSION"
        return (
            f"{self.metric:<16} baseline={self.baseline:.6f}s "
            f"current={self.current:.6f}s ({ratio}, limit {self.limit:.6f}s) "
            f"{verdict}"
        )


@dataclass
class RegressionReport:
    """All metric verdicts of one baseline comparison."""

    name: str
    tolerance: float
    checks: list[RegressionCheck] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    @property
    def regressions(self) -> list[RegressionCheck]:
        return [c for c in self.checks if not c.ok]

    def check(self, metric: str) -> Optional[RegressionCheck]:
        for c in self.checks:
            if c.metric == metric:
                return c
        return None

    def describe(self) -> str:
        head = (
            f"perf compare — {self.name or 'run'} "
            f"(tolerance {self.tolerance:+.0%})"
        )
        lines = [head]
        for c in self.checks:
            lines.append(f"  {c}")
        bad = self.regressions
        if bad:
            worst = max(
                bad, key=lambda c: c.ratio if not math.isinf(c.ratio) else 1e18
            )
            lines.append(
                f"  => {len(bad)} regression(s); worst: {worst.metric} at "
                + ("inf" if math.isinf(worst.ratio) else f"{worst.ratio:.2f}x")
            )
        else:
            lines.append("  => within tolerance")
        return "\n".join(lines)


def compare(
    baseline: Mapping[str, Any],
    current: Mapping[str, Any],
    tolerance: float = DEFAULT_TOLERANCE,
    *,
    metrics: Optional[Sequence[str]] = None,
) -> RegressionReport:
    """Compare a run record against a baseline document.

    ``baseline`` is a baseline document (``{"metrics": {...}}``) or a
    bare metric mapping; ``current`` is a ledger record (or any mapping
    with the metric keys at top level).  A metric regresses when
    ``current > baseline * (1 + tolerance)``; the boundary itself is
    within tolerance.  Near-zero baselines (< :data:`ZERO_FLOOR`)
    compare ``current`` against the floor instead — a zero-cost cell
    that stays zero passes, one that suddenly costs real time fails.
    Metrics missing from ``current`` are treated as 0.0 (never a
    regression); metrics are taken from the baseline, so a baseline
    tracks exactly the quantities it commits to.
    """
    if tolerance < 0:
        raise ValueError("tolerance must be non-negative")
    base_metrics: Mapping[str, Any] = baseline.get("metrics", baseline)  # type: ignore[assignment]
    names = list(metrics) if metrics is not None else sorted(base_metrics)
    report = RegressionReport(
        name=str(current.get("name", baseline.get("name", ""))),
        tolerance=float(tolerance),
    )
    for metric in names:
        base = float(base_metrics.get(metric, 0.0))
        cur = float(current.get(metric, 0.0))
        if base < ZERO_FLOOR:
            limit = ZERO_FLOOR * (1.0 + tolerance)
            ratio = 1.0 if cur < ZERO_FLOOR else math.inf
            ok = cur <= limit
        else:
            limit = base * (1.0 + tolerance)
            ratio = cur / base
            ok = cur <= limit
        report.checks.append(
            RegressionCheck(
                metric=metric, baseline=base, current=cur,
                ratio=ratio, limit=limit, ok=ok,
            )
        )
    return report
