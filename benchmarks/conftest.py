"""Shared fixtures for the benchmark harness.

Every ``bench_figN_*.py`` regenerates one of the paper's figures: it
runs the full six-version thread sweep through the simulator (that run
is what pytest-benchmark times), prints the paper-style table, writes
it to ``benchmarks/out/``, and asserts the figure's shape claims.

Run with::

    pytest benchmarks/ --benchmark-only

Problem sizes are the registry defaults (reduced from paper scale so
the suite finishes in minutes; DESIGN.md explains why ratios are
preserved).  Pass paper scale by editing the PARAMS dicts.

Every sweep routes through the :mod:`repro.sweep` executor.  Set
``REPRO_BENCH_JOBS=N`` to fan each sweep's cells out over N worker
processes — results are bit-identical to serial runs (the executor's
determinism contract), but note that the per-result validation audit
below only interposes on the in-process serial path, so leave the
default of 1 when you want every cell audited.

Set ``REPRO_SWEEP_SERVER=http://host:port`` to resolve every sweep on
a running ``repro serve`` instance instead: cells answer from the
service's shared store (or are simulated there once, deduplicated
across concurrent clients), and results stay bit-identical to local
runs.  The session fails fast if the variable names a service that is
not answering its health probe.  Like the ``jobs > 1`` fan-out, served
cells bypass the in-process validation audit.

``benchmarks/out/`` is generated output (gitignored since the sweep
cache moved in under it); fixtures create it on demand.

Every benchmark also appends one host-telemetry record to the run
ledger (``benchmarks/out/ledger/``, or ``REPRO_LEDGER_DIR``), so
``repro perf ledger`` / ``repro perf compare`` can track the suite's
host cost across runs.  Set ``REPRO_PERF_OFF=1`` to opt out of all
host telemetry (no recording, no ledger writes; simulated results are
bit-identical either way).
"""

from __future__ import annotations

import os
import pathlib
import re

import pytest

from repro.core.experiment import PAPER_THREADS
from repro.runtime.base import ExecContext

OUT_DIR = pathlib.Path(__file__).parent / "out"
METRICS_DIR = OUT_DIR / "metrics"

#: worker processes per sweep (1 = serial, every result audited)
JOBS = int(os.environ.get("REPRO_BENCH_JOBS", "1"))


def _slug(text: str) -> str:
    """Filesystem-safe name for a (program, version, threads) result."""
    return re.sub(r"[^A-Za-z0-9_.-]+", "-", text).strip("-") or "run"

#: thread counts of the paper's plots
THREADS = PAPER_THREADS


@pytest.fixture(scope="session")
def ctx() -> ExecContext:
    return ExecContext()


@pytest.fixture(scope="session", autouse=True)
def _sweep_server_gate():
    """Fail the whole session up front when ``REPRO_SWEEP_SERVER`` names
    a service that is not answering — one clear message beats every
    figure timing out against a dead endpoint."""
    url = os.environ.get("REPRO_SWEEP_SERVER")
    if not url:
        return
    from repro.serve.client import SweepClient

    with SweepClient(url) as client:
        healthy = client.health()
    if not healthy:
        pytest.exit(
            f"REPRO_SWEEP_SERVER={url} is set but the sweep service is not "
            "answering its health probe; start it with `repro serve` or "
            "unset the variable to run sweeps locally",
            returncode=3,
        )


@pytest.fixture(autouse=True)
def _validate_every_result(monkeypatch):
    """Audit every simulated result and dump its metrics JSON.

    The sweep executor resolves ``run_program`` through its own module
    namespace on the in-process serial path, so patching it there
    covers every figure sweep (at the default ``REPRO_BENCH_JOBS=1``).
    A violated invariant (overlapping intervals, dropped work,
    impossible makespan) fails the benchmark instead of silently
    producing a plausible-looking table.  Each result's
    counters/gauges/attribution land under ``benchmarks/out/metrics/``
    as one JSON file per (program, version, threads) cell, so a
    regression in e.g. steal counts is diffable across runs.
    """
    import repro.sweep.executor as executor
    from repro.obs.export import write_metrics
    from repro.runtime.run import run_program

    def checked(program, nthreads, ctx_, version="", validate=True, **kwargs):
        res = run_program(program, nthreads, ctx_, version, validate=True, **kwargs)
        name = _slug(f"{res.program}_{res.version}_p{res.nthreads}")
        write_metrics(METRICS_DIR / f"{name}.json", res)
        return res

    monkeypatch.setattr(executor, "run_program", checked)


@pytest.fixture(autouse=True)
def _ledger_every_benchmark(request):
    """Record each benchmark's host cost into the run ledger.

    One ``kind="bench"`` record per test, named after the module
    (``bench:bench_fig1_axpy``) — the raw material for
    ``repro perf compare``.  Inert under
    ``REPRO_PERF_OFF=1``; ledger IO failures degrade to a warning so an
    unwritable disk never fails a benchmark.
    """
    from repro.perf import Ledger, make_record
    from repro.perf.spans import recording

    with recording("bench") as rec:
        yield
    if rec is None:  # REPRO_PERF_OFF=1
        return
    name = f"bench:{request.node.module.__name__.rsplit('.', 1)[-1]}"
    try:
        Ledger().append(
            make_record("bench", name, rec, extra={"test": request.node.name,
                                                   "jobs": JOBS})
        )
    except OSError as exc:  # pragma: no cover - host FS dependent
        import warnings

        warnings.warn(f"could not append to run ledger: {exc}", stacklevel=1)


@pytest.fixture(scope="session")
def out_dir() -> pathlib.Path:
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    return OUT_DIR


@pytest.fixture
def save(out_dir):
    """Persist a rendered report under benchmarks/out/ and echo it."""

    def _save(name: str, text: str) -> None:
        path = out_dir / f"{name}.txt"
        path.write_text(text + "\n")
        print()
        print(text)

    return _save


def run_once(benchmark, fn):
    """Benchmark a sweep exactly once (sweeps are deterministic and
    expensive; statistical rounds add nothing)."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)
