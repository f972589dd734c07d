"""Tests for trace/statistics containers."""

import numpy as np
import pytest

from repro.sim.trace import RegionResult, SimResult, WorkerStats, speedup_series


class TestRegionResult:
    def make(self):
        return RegionResult(
            time=2.0,
            nthreads=2,
            workers=[WorkerStats(busy=1.5, overhead=0.5, tasks=3),
                     WorkerStats(busy=1.0, overhead=0.0, tasks=1)],
        )

    def test_totals(self):
        r = self.make()
        assert r.total_busy == pytest.approx(2.5)
        assert r.total_overhead == pytest.approx(0.5)
        assert r.total_tasks == 4

    def test_utilization(self):
        r = self.make()
        assert r.utilization() == pytest.approx(2.5 / 4.0)

    def test_zero_time_utilization(self):
        r = RegionResult(time=0.0, nthreads=2)
        assert r.utilization() == 0.0


class TestSimResult:
    def make(self):
        region = RegionResult(
            time=1.0, nthreads=4, workers=[WorkerStats(busy=2.0, overhead=0.5, tasks=7, steals=2)]
        )
        return SimResult("axpy", "omp_for", 4, 1.0, [region])

    def test_aggregates(self):
        r = self.make()
        assert r.total_busy == 2.0
        assert r.total_steals == 2
        assert r.overhead_fraction() == pytest.approx(0.25)

    def test_describe_mentions_key_facts(self):
        d = self.make().describe()
        assert "axpy/omp_for" in d and "p=4" in d

    def test_overhead_fraction_no_busy(self):
        r = SimResult("x", "v", 1, 0.0, [])
        assert r.overhead_fraction() == 0.0


class TestSpeedupSeries:
    def test_relative_to_first(self):
        s = speedup_series(np.array([8.0, 4.0, 2.0]))
        assert list(s) == [1.0, 2.0, 4.0]

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            speedup_series(np.array([1.0, 0.0]))

    def test_empty_ok(self):
        assert speedup_series(np.array([])).size == 0
