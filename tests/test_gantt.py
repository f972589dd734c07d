"""Tests for execution-trace recording and Gantt rendering."""

import pytest

from repro.obs.tracer import Tracer
from repro.runtime.base import ExecContext
from repro.runtime.workstealing import StealingScheduler
from repro.sim.machine import Machine
from repro.sim.trace import render_gantt
from repro.sim.task import TaskGraph

CTX = ExecContext(
    machine=Machine(sockets=1, cores_per_socket=4, smt=1, smt_throughput=1.0, name="tiny")
)


def wide_graph(n, work=10e-6):
    g = TaskGraph("wide")
    for _ in range(n):
        g.add(work, tag="body")
    return g


def traced_run(graph, nthreads):
    """Run ``graph`` with a tracer attached; return (result, intervals)."""
    tracer = Tracer()
    res = StealingScheduler(graph, nthreads, CTX, tracer=tracer).run()
    return res, tracer.intervals()


class TestRecording:
    def test_intervals_recorded_when_asked(self):
        _res, intervals = traced_run(wide_graph(16), 4)
        assert len(intervals) == 16
        for w, s, e, tag in intervals:
            assert 0 <= w < 4
            assert e > s >= 0
            assert tag == "body"

    def test_not_recorded_by_default(self):
        sched = StealingScheduler(wide_graph(8), 2, CTX)
        res = sched.run()
        assert res.time > 0
        assert sched.tracer is None
        assert all(d.lock.tracer is None for d in sched.deques)
        assert res.meta["events"] > 0  # the loop counts events untraced too

    def test_busy_time_matches_intervals(self):
        res, intervals = traced_run(wide_graph(20), 4)
        interval_busy = sum(e - s for _w, s, e, _t in intervals)
        assert interval_busy == pytest.approx(res.total_busy, rel=1e-9)

    def test_intervals_per_worker_disjoint(self):
        _res, intervals = traced_run(wide_graph(32), 4)
        by_worker: dict[int, list] = {}
        for w, s, e, _t in intervals:
            by_worker.setdefault(w, []).append((s, e))
        for spans in by_worker.values():
            spans.sort()
            for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
                assert s2 >= e1 - 1e-12, "a worker cannot run two tasks at once"


class TestGanttRendering:
    def test_rows_per_worker(self):
        _res, intervals = traced_run(wide_graph(16), 4)
        text = render_gantt(intervals, 4, width=40)
        lines = text.splitlines()
        assert len(lines) == 5  # header + 4 workers
        assert lines[1].startswith("w0")

    def test_busy_marks_present(self):
        _res, intervals = traced_run(wide_graph(16), 2)
        text = render_gantt(intervals, 2, width=30)
        assert "b" in text  # tag "body" initial

    def test_empty_trace(self):
        assert render_gantt([], 2) == "(empty trace)"

    def test_validation(self):
        with pytest.raises(ValueError):
            render_gantt([], 0)
        with pytest.raises(ValueError):
            render_gantt([(5, 0.0, 1.0, "x")], 2)
        with pytest.raises(ValueError):
            render_gantt([], 2, width=0)
