"""Tests for the roofline memory/duration model."""

import pytest

from repro.sim.machine import PAPER_MACHINE
from repro.sim.memory import MemoryModel


@pytest.fixture
def mem():
    return MemoryModel(PAPER_MACHINE)


class TestDuration:
    def test_compute_only(self, mem):
        assert mem.duration(1e-3) == pytest.approx(1e-3)

    def test_memory_only(self, mem):
        membytes = 1e6
        expected = membytes / PAPER_MACHINE.bandwidth_per_thread(1)
        assert mem.duration(0.0, membytes) == pytest.approx(expected)

    def test_roofline_takes_max(self, mem):
        work = 1e-3
        membytes = 1.0  # trivially fast transfer
        assert mem.duration(work, membytes) == pytest.approx(work)
        big = 1e9  # memory dominates
        assert mem.duration(work, big) > work

    def test_active_threads_shrink_bandwidth(self, mem):
        membytes = 1e8
        t1 = mem.duration(0.0, membytes, active=1)
        t18 = mem.duration(0.0, membytes, active=18)
        assert t18 > t1

    def test_active_clamped_to_one(self, mem):
        assert mem.duration(1e-3, active=0) == mem.duration(1e-3, active=1)

    def test_smt_slows_compute(self, mem):
        t36 = mem.duration(1e-3, active=36)
        t72 = mem.duration(1e-3, active=72)
        assert t72 > t36

    def test_locality_matters(self, mem):
        fast = mem.duration(0.0, 1e7, locality=1.0)
        slow = mem.duration(0.0, 1e7, locality=0.0)
        assert slow > fast

    def test_negative_inputs_rejected(self, mem):
        with pytest.raises(ValueError):
            mem.duration(-1.0)
        with pytest.raises(ValueError):
            mem.duration(1.0, membytes=-5)

    def test_nan_work_rejected(self, mem):
        with pytest.raises(ValueError, match="non-negative"):
            mem.duration(float("nan"))

    def test_nan_bytes_rejected(self, mem):
        with pytest.raises(ValueError, match="non-negative"):
            mem.duration(1e-6, float("nan"))
