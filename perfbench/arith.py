"""The benchmark's own arithmetic: percentiles, span self time, failure
share, result digests and fingerprint checks.

Pure functions with no ``repro`` import, covered by ``test_arith.py``.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
from typing import Any, Iterable, Mapping, Optional, Sequence


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0-100), interpolating linearly between
    closest ranks (numpy's default method)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be within [0, 100], got {q}")
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = math.ceil(pos)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def spread(values: Sequence[float]) -> dict[str, float]:
    """Median, quartiles, extremes and the quartile distance as a share
    of the median, with quartiles as ``statistics.quantiles(n=4)`` gives
    them."""
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "n": len(values),
        "median": med,
        "q1": q1,
        "q3": q3,
        "min": min(values),
        "max": max(values),
        "iqr_frac": (q3 - q1) / med if med else math.inf,
    }


def failed_frac(failed: int, attempted: int) -> float:
    """Failed operations as a share of those attempted."""
    if attempted <= 0:
        raise ValueError("no operation was attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed={failed} outside [0, attempted={attempted}]")
    return failed / attempted


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------
def self_times(spans: Iterable[Mapping[str, Any]]) -> dict[int, float]:
    """Self time of every span: its duration minus its direct children's.

    A span is a mapping with ``id``, ``parent`` (an id or ``None``),
    ``start`` and ``end``.  Children never outlast their parent when both
    come from one thread's nested ``with`` blocks, so subtracting their
    durations equals subtracting the part of the interval they cover.
    """
    spans = list(spans)
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        parent = s.get("parent")
        if parent is not None:
            own[parent] -= s["end"] - s["start"]
    return own


def layer_self_seconds(spans: Iterable[Mapping[str, Any]]) -> dict[str, float]:
    """Total self seconds per span name."""
    spans = list(spans)
    own = self_times(spans)
    totals: dict[str, float] = {}
    for s in spans:
        totals[s["name"]] = totals.get(s["name"], 0.0) + own[s["id"]]
    return totals


# ---------------------------------------------------------------------------
# correctness
# ---------------------------------------------------------------------------
def doc_digest(doc: Any) -> str:
    """SHA-256 of a codec or cache-entry document, serialized the way the
    result store writes it (insertion order, no whitespace)."""
    blob = json.dumps(doc, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def fingerprint_mismatches(
    observed: Mapping[str, int], expected: Mapping[str, int]
) -> list[str]:
    """Human-readable differences between two exact-count fingerprints."""
    out = []
    for key in sorted(set(observed) | set(expected)):
        got: Optional[int] = observed.get(key)
        want: Optional[int] = expected.get(key)
        if got != want:
            out.append(f"{key}: got {got}, expected {want}")
    return out
