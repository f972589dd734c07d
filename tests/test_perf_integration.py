"""End-to-end telemetry guarantees across the executor and exporters.

The load-bearing contract: host telemetry must never perturb the
simulation.  Results with instrumentation on, off (``REPRO_PERF_OFF=1``)
and absent (no active recorder) are bit-identical; ``SweepResult.perf``
carries the executor's own recording; the sweep metrics payload exposes
it under ``host``.
"""

from __future__ import annotations

import json

import pytest

from repro.obs.export import sweep_metrics_payload
from repro.perf.spans import PERF_OFF_ENV, recording
from repro.sweep import ResultCache, run_sweep
from repro.sweep.codec import result_to_dict

THREADS = (1, 4)
PARAMS = {"n": 200_000}


def fingerprint(sweep, *, trace=False):
    """Full-fidelity comparable form (exact floats, per-cell results)."""
    return {
        "series": sweep.series,
        "errors": dict(sweep.errors),
        "results": {
            f"{v}-p{p}": result_to_dict(res, with_trace=trace)
            for (v, p), res in sorted(sweep.results.items())
        },
    }


def _sweep(**kwargs):
    kwargs.setdefault("threads", THREADS)
    kwargs.setdefault("params", PARAMS)
    return run_sweep("axpy", **kwargs)


class TestBitIdentity:
    def test_off_and_unmetered_and_metered_agree(self, monkeypatch):
        unmetered = _sweep()  # no recorder active: spans are null objects

        with recording("sweep"):
            metered = _sweep()

        monkeypatch.setenv(PERF_OFF_ENV, "1")
        disabled = _sweep()

        fp = fingerprint(unmetered)
        assert fingerprint(metered) == fp
        assert fingerprint(disabled) == fp

    def test_traced_runs_identical_under_telemetry(self):
        plain = _sweep(versions=("omp_task",), trace=True)
        with recording("sweep"):
            metered = _sweep(versions=("omp_task",), trace=True)
        assert fingerprint(metered, trace=True) == fingerprint(plain, trace=True)

    def test_cache_entries_identical_under_telemetry(self, tmp_path):
        plain = _sweep(cache=ResultCache(tmp_path / "a"), versions=("omp_for",))
        with recording("sweep"):
            metered = _sweep(cache=ResultCache(tmp_path / "b"), versions=("omp_for",))
        entries_a = sorted(p.read_text() for p in (tmp_path / "a").rglob("*.json"))
        entries_b = sorted(p.read_text() for p in (tmp_path / "b").rglob("*.json"))
        assert entries_a == entries_b
        assert fingerprint(plain) == fingerprint(metered)


class TestSweepResultPerf:
    def test_perf_populated_by_default(self):
        sweep = _sweep()
        assert sweep.perf is not None
        assert sweep.perf["label"] == "sweep"
        assert sweep.host_wall_seconds > 0
        assert sweep.host_cpu_seconds > 0
        assert sweep.perf["spans"]["cell.simulate"]["count"] == len(THREADS) * len(
            sweep.versions
        )

    def test_perf_none_when_disabled(self, monkeypatch):
        monkeypatch.setenv(PERF_OFF_ENV, "1")
        sweep = _sweep()
        assert sweep.perf is None
        assert sweep.host_wall_seconds == 0.0
        assert sweep.host_cpu_seconds == 0.0

    def test_outer_recording_sees_sweep_detail(self):
        with recording("outer") as outer:
            sweep = _sweep(versions=("omp_for",))
        assert sweep.perf is not None
        # nested recording folded its spans and one "sweep" block span up
        assert outer.spans["cell.simulate"].count == len(THREADS)
        assert outer.spans["sweep"].count == 1

    def test_cache_counters_recorded(self, tmp_path):
        cache = ResultCache(tmp_path)
        cold = _sweep(versions=("omp_for",), cache=cache)
        warm = _sweep(versions=("omp_for",), cache=cache)
        assert cold.perf["counters"]["cache.miss"] == len(THREADS)
        assert cold.perf["counters"]["cache.store"] == len(THREADS)
        assert warm.perf["counters"]["cache.hit"] == len(THREADS)
        probe = warm.perf["observations"]["cache.probe_seconds"]
        assert probe["count"] == len(THREADS)
        assert probe["max"] >= probe["min"] >= 0.0

    def test_parallel_sweep_records_fanout(self):
        sweep = _sweep(jobs=2)
        spans = sweep.perf["spans"]
        assert spans["fanout.pool"]["count"] == 2  # pool setup + shutdown
        assert spans["fanout.submit"]["count"] == 1
        assert spans["fanout.wait"]["count"] >= len(THREADS) * len(sweep.versions)
        # worker processes simulate; the parent must not claim cell.simulate
        assert "cell.simulate" not in spans


class TestMetricsPayload:
    def test_host_section_present(self):
        sweep = _sweep()
        payload = sweep_metrics_payload(sweep, jobs=1)
        json.dumps(payload)  # JSON-ready
        assert payload["host"]["wall_seconds"] == sweep.host_wall_seconds
        # host wall backfills the top-level wall when the caller has none
        assert payload["wall_seconds"] == pytest.approx(sweep.host_wall_seconds)

    def test_explicit_wall_wins(self):
        sweep = _sweep()
        payload = sweep_metrics_payload(sweep, wall_seconds=123.0)
        assert payload["wall_seconds"] == 123.0

    def test_no_host_section_when_disabled(self, monkeypatch):
        monkeypatch.setenv(PERF_OFF_ENV, "1")
        sweep = _sweep()
        payload = sweep_metrics_payload(sweep)
        assert "host" not in payload
        assert "wall_seconds" not in payload


class TestEngineSpans:
    def test_amt_graph_walk_is_a_span_with_a_task_count(self):
        """Each AMT graph region is one ``engine.walk`` span and adds its
        task count to ``engine.tasks``; the result does not change."""
        from repro.kernels import fib as fib_kernel
        from repro.runtime.amt import run_charm_graph, run_hpx_graph
        from repro.runtime.base import ExecContext

        graph = fib_kernel.graph(10)
        ctx = ExecContext()
        plain = run_hpx_graph(graph, 4, ctx)
        with recording("walk") as rec:
            metered = run_hpx_graph(graph, 4, ctx)
            run_charm_graph(graph, 3, ctx)
        assert metered == plain
        assert rec.spans["engine.walk"].count == 2
        assert rec.counters["engine.tasks"] == 2 * len(graph)
        assert "engine.drain" not in rec.spans
