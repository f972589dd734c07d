"""Tests for the work-stealing event loop and the SimLock resource.

The discrete-event loop lives in :class:`StealingScheduler` (one heap of
``(time, seq, worker, kind)`` entries), so its clock, tie order, event
count and guards are tested through scheduler runs.
"""

import re

import pytest

from repro.faults.plan import FaultPlan
from repro.obs.tracer import Tracer
from repro.runtime.base import ExecContext
from repro.runtime.workstealing import StealingScheduler, run_stealing_graph
from repro.sim.engine import SimLock
from repro.sim.task import TaskGraph

CTX = ExecContext()


def wide(n=40, work=1e-6):
    g = TaskGraph("wide")
    for _ in range(n):
        g.add(work)
    return g


def chain(n, work=1e-6):
    g = TaskGraph("chain")
    prev = ()
    for _ in range(n):
        prev = (g.add(work, deps=prev),)
    return g


def traced(graph, p, ctx=CTX, **kw):
    tracer = Tracer()
    sched = StealingScheduler(graph, p, ctx, tracer=tracer, **kw)
    res = sched.run()
    return sched, res, tracer


class TestEngine:
    """The event loop's clock, queue and tie order."""

    def test_events_fire_in_time_order(self):
        _s, _r, tracer = traced(wide(), 4)
        times = [t for t, _ in tracer.engine_events]
        assert times and times == sorted(times)

    def test_ties_break_by_insertion_order(self):
        # identical tasks: the wake-ups pushed together share one time
        _s, _r, tracer = traced(wide(), 4)
        log = tracer.engine_events
        ties = [(a, b) for a, b in zip(log, log[1:]) if a[0] == b[0]]
        assert ties
        assert all(b[1] > a[1] for a, b in ties)

    def test_callbacks_can_schedule_more(self):
        # each finish makes the next link ready and starts it
        _s, res, tracer = traced(chain(6), 1)
        log = tracer.engine_events
        assert res.meta["events"] == len(log) == 6
        assert [seq for _, seq in log] == [1, 2, 3, 4, 5, 6]
        assert all(b[0] > a[0] for a, b in zip(log, log[1:]))

    def test_cannot_schedule_in_past(self):
        sched = StealingScheduler(wide(4), 2, CTX)
        sched._duration = lambda *args: -1.0
        with pytest.raises(ValueError, match="before now=0.0"):
            sched.run()

    def test_direct_at_in_past_after_clock_advanced(self):
        sched = StealingScheduler(chain(4), 1, CTX)
        real = sched._duration
        calls = []

        def duration(*args):
            calls.append(args)
            return real(*args) if len(calls) < 3 else -1.0

        sched._duration = duration
        with pytest.raises(ValueError, match="before now") as info:
            sched.run()
        now = float(re.search(r"now=(\S+)$", str(info.value)).group(1))
        assert now > 0.0

    def test_empty_run_returns_now(self):
        sched = StealingScheduler(TaskGraph(), 4, CTX)
        assert sched.run().time == 0.0
        assert sched.events == 0 and len(sched._heap) == 0

    def test_events_processed_counter(self):
        _s, res, tracer = traced(wide(), 4)
        # every task finishes once; the rest are wake-ups
        wakes = sum(1 for i in tracer.instants if i.name == "wake")
        assert res.meta["events"] == len(tracer.engine_events) == 40 + wakes
        assert StealingScheduler(wide(), 4, CTX).run().meta["events"] == res.meta["events"]

    def test_max_events_guard(self):
        with pytest.raises(RuntimeError, match="exceeded 10 events"):
            run_stealing_graph(wide(), 4, ExecContext(max_events=10))

    def test_max_events_guard_traced(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError, match="exceeded 10 events"):
            run_stealing_graph(wide(), 4, ExecContext(max_events=10), tracer=tracer)
        # the guard trips after the event that crosses the limit
        assert len(tracer.engine_events) == 11

    def test_max_events_allows_exact_budget(self):
        events = StealingScheduler(wide(), 4, CTX).run().meta["events"]
        ctx = ExecContext(max_events=events)
        assert StealingScheduler(wide(), 4, ctx).run().meta["events"] == events

    def test_tie_breaker_is_deterministic_across_runs(self):
        _s1, r1, t1 = traced(wide(), 4)
        _s2, r2, t2 = traced(wide(), 4)
        assert t1.engine_events == t2.engine_events
        assert t1.spans == t2.spans
        assert r1.time == r2.time


class TestEngineAudit:
    def test_audit_off_by_default(self):
        sched = StealingScheduler(wide(), 4, CTX)
        res = sched.run()
        assert sched.tracer is None
        assert res.meta["events"] > 0

    def test_audit_records_time_and_seq(self):
        sched, res, tracer = traced(wide(), 4)
        log = tracer.engine_events
        # (time, seq) strictly increases: the clock never runs back and
        # ties fire in insertion order; seq itself is not monotonic,
        # since a later push can carry an earlier time
        assert all(b > a for a, b in zip(log, log[1:]))
        seqs = [seq for _, seq in log]
        assert sorted(seqs) == list(range(1, len(log) + 1))
        assert len(sched._heap) == 0


class TestPoisonedStop:
    def test_poisoned_tree_stops_with_events_queued(self):
        # the failing task finishes before the wake-ups its siblings
        # triggered fire; the tree goes quiet with those still queued
        faults = FaultPlan.parse("fail:task=0").for_region("r", 0, mode="poison")
        sched, res, tracer = traced(wide(8, 1e-9), 4, faults=faults)
        assert sched.poisoned
        assert res.meta["events"] == len(tracer.engine_events) == 1
        assert len(sched._heap) == 3
        assert [i.name for i in tracer.instants] == ["cancel"]
        assert res.meta["fault"]["skipped"] == 7

    def test_unpoisoned_failure_drains_the_queue(self):
        faults = FaultPlan.parse("fail:task=0").for_region("r", 0, mode="none")
        sched, res, _t = traced(wide(8, 1e-9), 4, faults=faults)
        assert not sched.poisoned
        assert len(sched._heap) == 0
        assert res.meta["fault"]["skipped"] == 0


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
