"""Host-cost attribution tests, including the coverage acceptance bar.

The executor's instrumentation must attribute >= 95% of a real sweep's
host wall time to named categories (simulate/estimate/cache/codec/
fanout); the residual is reported as ``other`` and the split always
sums to 100%.
"""

from __future__ import annotations

import gc

import pytest

from repro.perf.report import CATEGORY_SPANS, attribute_host
from repro.perf.spans import PerfRecorder, recording
from repro.sweep import run_sweep


def _snapshot(wall=10.0, **span_walls):
    rec = PerfRecorder("t")
    rec.wall = wall
    rec.cpu = wall
    for name, w in span_walls.items():
        rec.add_span(name.replace("__", "."), w, w)
    return rec


class TestAttributionArithmetic:
    def test_categories_plus_other_cover_total(self):
        report = attribute_host(
            _snapshot(wall=10.0, cell__simulate=6.0, cache__probe=1.0)
        )
        assert report.total == pytest.approx(10.0)
        assert sum(e.seconds for e in report.entries) == pytest.approx(10.0)
        assert sum(e.share for e in report.entries) == pytest.approx(1.0)
        assert report.seconds("simulate") == pytest.approx(6.0)
        assert report.seconds("cache") == pytest.approx(1.0)
        assert report.seconds("other") == pytest.approx(3.0)
        assert report.coverage == pytest.approx(0.7)
        assert report.top == "simulate"

    def test_entries_ranked_by_seconds(self):
        report = attribute_host(
            _snapshot(wall=10.0, cache__probe=5.0, cell__simulate=4.0)
        )
        assert [e.category for e in report.entries[:2]] == ["cache", "simulate"]

    def test_nested_detail_not_double_counted(self):
        # engine.drain happens inside cell.simulate: it must show as
        # detail, never inflate the top-level split past the total
        report = attribute_host(
            _snapshot(wall=10.0, cell__simulate=9.0, engine__drain=8.5)
        )
        assert report.seconds("simulate") == pytest.approx(9.0)
        assert report.seconds("other") == pytest.approx(1.0)
        assert ("engine.drain", 8.5, 1) in report.detail

    def test_attributed_overshoot_clamps_other(self):
        # span walls can overshoot the block total by clock resolution;
        # "other" must clamp at zero rather than go negative
        report = attribute_host(_snapshot(wall=1.0, cell__simulate=1.0001))
        assert report.seconds("other") == 0.0

    def test_zero_wall_uses_attributed_total(self):
        report = attribute_host(_snapshot(wall=0.0, cell__simulate=2.0))
        assert report.total == pytest.approx(2.0)
        assert report.share("simulate") == pytest.approx(1.0)

    def test_accepts_recorder_record_and_snapshot(self):
        rec = _snapshot(wall=4.0, cell__simulate=3.0)
        from_recorder = attribute_host(rec, name="r")
        from_snapshot = attribute_host(rec.snapshot(), name="r")
        record = dict(rec.snapshot())
        record["name"] = "sweep:axpy"
        from_record = attribute_host(record)
        for rep in (from_recorder, from_snapshot):
            assert rep.seconds("simulate") == pytest.approx(3.0)
        assert from_record.title.startswith("host-cost attribution — sweep:axpy:")

    def test_describe_mentions_top_category(self):
        text = attribute_host(
            _snapshot(wall=10.0, cell__simulate=9.0), name="sweep:axpy"
        ).describe()
        assert "sweep:axpy" in text
        assert "dominated by simulate" in text

    def test_category_map_spans_are_unique(self):
        all_spans = [n for names in CATEGORY_SPANS.values() for n in names]
        assert len(all_spans) == len(set(all_spans))


class TestSweepCoverage:
    """The acceptance bar: >= 95% of a real sweep's wall time attributed."""

    def test_serial_sweep_coverage(self):
        # Collect the garbage earlier tests left behind first.  Its young
        # collection (hundreds of cyclic pytest objects, 0.1-0.2 ms) is no
        # cost of this sweep, but it runs at whichever allocation crosses
        # the collector's threshold, and when the session's allocation
        # count puts that in the sweep's first microseconds it lands
        # outside every executor span.  The sweep runs once, unwarmed.
        gc.collect()
        with recording("sweep") as rec:
            sweep = run_sweep(
                "axpy", versions=("omp_for", "cilk_for"), threads=(1, 2, 4),
                params={"n": 200_000}, cache=None,
            )
        assert not sweep.errors
        report = attribute_host(rec)
        assert report.coverage >= 0.95
        assert report.top == "simulate"
        assert report.seconds("simulate") > 0

    def test_tier0_sweep_attributes_estimate(self):
        with recording("sweep") as rec:
            sweep = run_sweep(
                "axpy", versions=("omp_for",), threads=(1, 4),
                params={"n": 200_000}, cache=None, fidelity=0,
            )
        assert not sweep.errors
        report = attribute_host(rec)
        assert report.seconds("estimate") > 0
        assert report.seconds("simulate") == 0.0
