"""Tests for the work-stealing deque models."""

import pytest

from repro.sim.costs import CostModel
from repro.sim.deque import LockedDeque, THEDeque, make_deque


@pytest.fixture
def costs():
    return CostModel()


class TestSemantics:
    """Both flavours share LIFO-pop / FIFO-steal double-ended semantics."""

    @pytest.mark.parametrize("kind", ["the", "locked"])
    def test_pop_is_lifo(self, kind, costs):
        d = make_deque(kind, 0, costs)
        for tid in (10, 11, 12):
            d.push(0.0, tid)
        assert d.pop(1.0)[0] == 12
        assert d.pop(1.0)[0] == 11
        assert d.pop(1.0)[0] == 10

    @pytest.mark.parametrize("kind", ["the", "locked"])
    def test_steal_is_fifo(self, kind, costs):
        d = make_deque(kind, 0, costs)
        for tid in (10, 11, 12):
            d.push(0.0, tid)
        assert d.steal(1.0)[0] == 10
        assert d.steal(1.0)[0] == 11

    @pytest.mark.parametrize("kind", ["the", "locked"])
    def test_pop_empty_returns_none(self, kind, costs):
        d = make_deque(kind, 0, costs)
        tid, t = d.pop(3.0)
        assert tid is None
        assert t == 3.0  # empty pop is free

    @pytest.mark.parametrize("kind", ["the", "locked"])
    def test_steal_empty_returns_none(self, kind, costs):
        d = make_deque(kind, 0, costs)
        tid, t = d.steal(3.0)
        assert tid is None
        assert t > 3.0  # probing costs latency

    @pytest.mark.parametrize("kind", ["the", "locked"])
    def test_len_tracks_contents(self, kind, costs):
        d = make_deque(kind, 0, costs)
        assert len(d) == 0
        d.push(0.0, 1)
        d.push(0.0, 2)
        assert len(d) == 2
        d.pop(0.0)
        assert len(d) == 1

    @pytest.mark.parametrize("kind", ["the", "locked"])
    def test_statistics(self, kind, costs):
        d = make_deque(kind, 0, costs)
        d.push(0.0, 1)
        d.push(0.0, 2)
        d.pop(0.0)
        d.steal(0.0)
        assert (d.pushes, d.pops, d.steals) == (2, 1, 1)


class TestCostDiscipline:
    def test_the_owner_ops_do_not_touch_lock(self, costs):
        d = THEDeque(0, costs)
        d.push(0.0, 1)
        d.pop(0.0)
        assert d.lock.acquisitions == 0

    def test_the_steal_takes_lock(self, costs):
        d = THEDeque(0, costs)
        d.push(0.0, 1)
        d.steal(0.0)
        assert d.lock.acquisitions == 1

    def test_locked_everything_takes_lock(self, costs):
        d = LockedDeque(0, costs)
        d.push(0.0, 1)
        d.push(0.0, 2)
        d.pop(0.0)
        d.steal(0.0)
        assert d.lock.acquisitions == 4

    def test_locked_owner_contends_with_thief(self, costs):
        """An owner push right after a steal waits for the lock —
        the contention mechanism behind the paper's fib gap."""
        d = LockedDeque(0, costs)
        d.push(0.0, 1)
        steal_done = d.steal(1.0)[1]
        push_done = d.push(1.0, 2)
        assert push_done >= steal_done  # serialized behind the steal

    def test_the_owner_does_not_wait_for_thief(self, costs):
        d = THEDeque(0, costs)
        d.push(0.0, 1)
        d.push(0.0, 2)
        d.steal(1.0)
        push_done = d.push(1.0, 3)
        assert push_done == pytest.approx(1.0 + costs.the_push)

    def test_op_costs_match_model(self, costs):
        d = THEDeque(0, costs)
        assert d.push(0.0, 1) == pytest.approx(costs.the_push)
        assert d.pop(1.0)[1] == pytest.approx(1.0 + costs.the_pop)
        d.push(2.0, 2)
        assert d.steal(3.0)[1] == pytest.approx(3.0 + costs.the_steal)

    def test_locked_costs_match_model(self, costs):
        d = LockedDeque(0, costs)
        assert d.push(0.0, 1) == pytest.approx(costs.locked_push)
        assert d.pop(10.0)[1] == pytest.approx(10.0 + costs.locked_pop)


class TestFactory:
    def test_factory_kinds(self, costs):
        assert isinstance(make_deque("the", 0, costs), THEDeque)
        assert isinstance(make_deque("locked", 0, costs), LockedDeque)

    def test_factory_rejects_unknown(self, costs):
        with pytest.raises(ValueError, match="unknown deque kind"):
            make_deque("lockfree", 0, costs)
