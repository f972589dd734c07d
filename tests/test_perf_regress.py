"""Regression-tracker tests: baselines and compare edge cases.

The detector must be one-sided (faster is never a regression), exact at
the tolerance boundary, safe on zero-time baselines, and loud on a
missing baseline.  Baseline files must be byte-deterministic.
"""

from __future__ import annotations

import json
import math

import pytest

from repro.perf.regress import (
    ZERO_FLOOR,
    MissingBaselineError,
    baseline_path,
    compare,
    load_baseline,
    slugify,
    write_baseline,
)


def _record(name="sweep:axpy", wall=2.0, cpu=1.5, ts=100.0, **extra):
    doc = {
        "name": name,
        "kind": "sweep",
        "wall_seconds": wall,
        "cpu_seconds": cpu,
        "ts": ts,
        "env": {"python": "3.12.1", "git_sha": "abc123", "machine": "x86_64"},
    }
    if extra:
        doc["extra"] = extra
    return doc


class TestSlug:
    def test_slugify(self):
        assert slugify("sweep:axpy") == "sweep_axpy"
        assert slugify("a b/c") == "a_b_c"
        assert slugify("::") == "run"


class TestBaselines:
    def test_write_is_deterministic(self, tmp_path):
        a = write_baseline(
            "sweep:axpy", {"wall_seconds": 1.23456789, "cpu_seconds": 1.0},
            root=tmp_path / "a", meta={"jobs": 1, "subject": "sweep:axpy"},
        )
        b = write_baseline(
            "sweep:axpy", {"cpu_seconds": 1.0, "wall_seconds": 1.23456789},
            root=tmp_path / "b", meta={"subject": "sweep:axpy", "jobs": 1},
        )
        assert a.read_text() == b.read_text()  # key order never leaks
        doc = json.loads(a.read_text())
        assert doc["metrics"]["wall_seconds"] == 1.234568  # rounded to 6 places
        assert "ts" not in doc and "time" not in doc

    def test_load_by_name_and_path(self, tmp_path):
        path = write_baseline("sweep:axpy", {"wall_seconds": 1.0}, root=tmp_path)
        assert path == baseline_path("sweep:axpy", tmp_path)
        by_name = load_baseline("sweep:axpy", root=tmp_path)
        by_path = load_baseline(path)
        assert by_name == by_path

    def test_missing_baseline_raises(self, tmp_path):
        with pytest.raises(MissingBaselineError):
            load_baseline("sweep:nope", root=tmp_path)
        # MissingBaselineError is a FileNotFoundError: callers may catch either
        assert issubclass(MissingBaselineError, FileNotFoundError)

    def test_invalid_baseline_raises_valueerror(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ValueError):
            load_baseline(bad)
        bad.write_text(json.dumps({"metrics": [1, 2]}))
        with pytest.raises(ValueError):
            load_baseline(bad)


class TestCompare:
    BASE = {"name": "sweep:axpy", "metrics": {"wall_seconds": 1.0, "cpu_seconds": 0.8}}

    def test_within_tolerance_ok(self):
        report = compare(self.BASE, _record(wall=1.2, cpu=0.9), tolerance=0.5)
        assert report.ok
        assert report.regressions == []
        assert report.check("wall_seconds").ratio == pytest.approx(1.2)

    def test_exact_boundary_passes(self):
        # current == baseline * (1 + tolerance) is within tolerance
        report = compare(self.BASE, _record(wall=1.5, cpu=1.2), tolerance=0.5)
        assert report.ok

    def test_injected_2x_slowdown_fails(self):
        report = compare(self.BASE, _record(wall=2.0, cpu=1.6), tolerance=0.5)
        assert not report.ok
        assert {c.metric for c in report.regressions} == {
            "wall_seconds", "cpu_seconds",
        }
        assert report.check("wall_seconds").ratio == pytest.approx(2.0)
        assert "REGRESSION" in report.describe()

    def test_faster_is_never_a_regression(self):
        report = compare(self.BASE, _record(wall=0.001, cpu=0.001), tolerance=0.0)
        assert report.ok

    def test_zero_baseline_zero_current_ok(self):
        base = {"metrics": {"wall_seconds": 0.0}}
        report = compare(base, {"wall_seconds": 0.0}, tolerance=0.5)
        assert report.ok
        assert report.check("wall_seconds").ratio == 1.0

    def test_zero_baseline_real_current_fails(self):
        base = {"metrics": {"wall_seconds": 0.0}}
        report = compare(base, {"wall_seconds": 0.25}, tolerance=0.5)
        assert not report.ok
        assert math.isinf(report.check("wall_seconds").ratio)
        assert "inf" in report.describe()

    def test_subresolution_baseline_uses_floor(self):
        base = {"metrics": {"wall_seconds": ZERO_FLOOR / 10}}
        report = compare(base, {"wall_seconds": ZERO_FLOOR / 10}, tolerance=0.0)
        assert report.ok  # clock noise under the floor never fails

    def test_metric_missing_from_current_is_zero(self):
        report = compare(self.BASE, {"name": "x"}, tolerance=0.5)
        assert report.ok
        assert report.check("cpu_seconds").current == 0.0

    def test_metrics_come_from_baseline(self):
        # current may carry extra metrics; only baseline's are judged
        cur = _record(wall=1.0, cpu=0.8)
        cur["gpu_seconds"] = 99.0
        report = compare(self.BASE, cur, tolerance=0.1)
        assert {c.metric for c in report.checks} == {"wall_seconds", "cpu_seconds"}

    def test_explicit_metric_subset(self):
        report = compare(
            self.BASE, _record(wall=5.0, cpu=0.8),
            tolerance=0.5, metrics=["cpu_seconds"],
        )
        assert report.ok  # wall regressed but was not selected

    def test_bare_metric_mapping_accepted(self):
        report = compare({"wall_seconds": 1.0}, {"wall_seconds": 1.1}, tolerance=0.2)
        assert report.ok

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValueError):
            compare(self.BASE, _record(), tolerance=-0.1)
