"""Tests for the discrete-event engine and the SimLock resource."""

import pytest

from repro.obs.tracer import Tracer
from repro.sim.engine import Engine, SimLock


class TestEngine:
    def test_events_fire_in_time_order(self):
        eng = Engine()
        seen = []
        eng.at(3.0, lambda: seen.append("c"))
        eng.at(1.0, lambda: seen.append("a"))
        eng.at(2.0, lambda: seen.append("b"))
        eng.run()
        assert seen == ["a", "b", "c"]
        assert eng.now == 3.0

    def test_ties_break_by_insertion_order(self):
        eng = Engine()
        seen = []
        for tag in ("first", "second", "third"):
            eng.at(1.0, lambda t=tag: seen.append(t))
        eng.run()
        assert seen == ["first", "second", "third"]

    def test_callbacks_can_schedule_more(self):
        eng = Engine()
        seen = []

        def chain(k):
            seen.append(k)
            if k < 5:
                eng.after(1.0, lambda: chain(k + 1))

        eng.at(0.0, lambda: chain(0))
        eng.run()
        assert seen == [0, 1, 2, 3, 4, 5]
        assert eng.now == 5.0

    def test_cannot_schedule_in_past(self):
        eng = Engine()
        eng.at(5.0, lambda: eng.at(1.0, lambda: None))
        with pytest.raises(ValueError):
            eng.run()

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            Engine().after(-1.0, lambda: None)

    def test_run_until_stops_early(self):
        eng = Engine()
        seen = []
        eng.at(1.0, lambda: seen.append(1))
        eng.at(10.0, lambda: seen.append(10))
        eng.run(until=5.0)
        assert seen == [1]
        assert eng.pending == 1
        eng.run()
        assert seen == [1, 10]

    def test_max_events_guard(self):
        eng = Engine()

        def forever():
            eng.after(1.0, forever)

        eng.at(0.0, forever)
        with pytest.raises(RuntimeError, match="exceeded"):
            eng.run(max_events=100)

    def test_events_processed_counter(self):
        eng = Engine()
        for i in range(7):
            eng.at(float(i), lambda: None)
        eng.run()
        assert eng.events_processed == 7

    def test_empty_run_returns_now(self):
        eng = Engine()
        assert eng.run() == 0.0

    def test_direct_at_in_past_after_clock_advanced(self):
        eng = Engine()
        eng.at(5.0, lambda: None)
        eng.run()
        assert eng.now == 5.0
        with pytest.raises(ValueError, match="before now"):
            eng.at(4.999, lambda: None)
        eng.at(5.0, lambda: None)  # exactly now is fine

    def test_negative_absolute_time_rejected(self):
        with pytest.raises(ValueError):
            Engine().at(-0.001, lambda: None)

    def test_negative_delay_after_advance_rejected(self):
        eng = Engine()
        eng.at(3.0, lambda: None)
        eng.run()
        with pytest.raises(ValueError):
            eng.after(-1.0, lambda: None)
        eng.after(0.0, lambda: None)  # zero delay is fine

    def test_tie_breaker_is_deterministic_across_runs(self):
        def run_once():
            eng = Engine()
            seen = []
            # interleave equal-time events from top level and callbacks
            for i in range(5):
                eng.at(1.0, lambda i=i: seen.append(("top", i)))
            eng.at(0.5, lambda: [eng.at(1.0, lambda j=j: seen.append(("cb", j)))
                                 for j in range(5)])
            eng.run()
            return seen

        first = run_once()
        assert first == run_once()
        # insertion order within the tie: top-level events were queued first
        assert first[:5] == [("top", i) for i in range(5)]
        assert first[5:] == [("cb", j) for j in range(5)]


class TestEngineAudit:
    def test_audit_off_by_default(self):
        eng = Engine()
        eng.at(1.0, lambda: None)
        eng.run()
        assert eng.tracer is None

    def test_audit_records_time_and_seq(self):
        tracer = Tracer()
        eng = Engine(tracer=tracer)
        eng.at(2.0, lambda: None)
        eng.at(1.0, lambda: None)
        eng.at(1.0, lambda: None)
        eng.run()
        log = tracer.engine_events
        assert log == [(1.0, 2), (1.0, 3), (2.0, 1)]
        times = [t for t, _ in log]
        assert times == sorted(times)


class TestSimLock:
    def test_uncontended_grant_is_immediate(self):
        lock = SimLock()
        assert lock.acquire(5.0, 1.0) == 5.0
        assert lock.busy_until == 6.0

    def test_contended_waits_fifo(self):
        lock = SimLock()
        g1 = lock.acquire(0.0, 2.0)
        g2 = lock.acquire(1.0, 2.0)
        g3 = lock.acquire(1.5, 2.0)
        assert (g1, g2, g3) == (0.0, 2.0, 4.0)

    def test_acquire_release_returns_end(self):
        lock = SimLock()
        assert lock.acquire_release(3.0, 0.5) == 3.5

    def test_gap_resets_contention(self):
        lock = SimLock()
        lock.acquire(0.0, 1.0)
        assert lock.acquire(10.0, 1.0) == 10.0

    def test_statistics(self):
        lock = SimLock("d")
        lock.acquire(0.0, 2.0)
        lock.acquire(0.0, 2.0)  # waits 2
        assert lock.acquisitions == 2
        assert lock.wait_time == pytest.approx(2.0)
        assert lock.hold_time == pytest.approx(4.0)
        assert 0.0 < lock.contended_fraction < 1.0

    def test_zero_hold_allowed(self):
        lock = SimLock()
        assert lock.acquire(1.0, 0.0) == 1.0

    def test_negative_hold_rejected(self):
        with pytest.raises(ValueError):
            SimLock().acquire(0.0, -1.0)

    def test_fresh_lock_uncontended_fraction_zero(self):
        assert SimLock().contended_fraction == 0.0

    def test_audit_log_off_by_default(self):
        lock = SimLock()
        lock.acquire(0.0, 1.0)
        assert lock.tracer is None

    def test_audit_log_records_request_grant_hold(self):
        tracer = Tracer()
        lock = SimLock(tracer=tracer)
        lock.acquire(0.0, 2.0)
        lock.acquire(1.0, 0.5)  # contended: granted at 2.0
        log = tracer.lock_events["lock"]
        assert log == [(0.0, 0.0, 2.0), (1.0, 2.0, 0.5)]
        for req, grant, hold in log:
            assert grant >= req and hold >= 0.0
