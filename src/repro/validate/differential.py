"""Differential runtime oracle.

Task Bench's lesson (Wu et al., PAPERS.md): overhead claims need an
*independent* oracle, not just the runtime's own accounting.  This
module provides two:

- :func:`run_differential_matrix` — the same iteration space / task
  graph executed by **every** runtime (fork-join worksharing, random
  work stealing over both deque protocols, bare threads) under every
  schedule combination, cross-checked for

  * **determinism** — two runs of the same configuration must produce
    bit-identical times and per-worker statistics (the engine's
    insertion-order tie-break guarantees this);
  * **useful-work equality** — all runtimes execute the same loop, so
    their single-thread busy time must agree within the roofline band
    (a runtime that skips or double-executes chunks falls outside it);
  * **speedup ordering** — one thread must cost about the serial time
    (no hidden parallel-only work), and adding threads must never slow
    a run down by more than the modelled overhead slack;
  * every trace-level invariant from :mod:`repro.validate.invariants`:
    each matrix entry names a region's executor and params
    (:func:`loop_runtime_matrix`, :func:`graph_runtime_matrix`), every
    run of it goes through :func:`~repro.runtime.run.execute_region`
    — the dispatcher programs use — with its own
    :class:`~repro.obs.tracer.Tracer`, and that tracer's unified event
    stream — execution spans, lock grants, engine events — is put
    through :func:`~repro.validate.invariants.check_trace`, which also
    cross-checks its per-worker execution-span seconds against the
    runtime's own ``WorkerStats`` busy accounting.

- :func:`run_registry_audit` — every registered workload x version
  built and executed at reduced size, each result put through the cheap
  invariant pass (the same check the benchmark suite applies).
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

from repro.runtime.base import ExecContext, ThreadExplosionError
from repro.runtime.run import execute_region, run_program
from repro.obs.tracer import Tracer
from repro.sim.task import IterSpace, LoopRegion, TaskRegion
from repro.sim.trace import RegionResult
from repro.validate.invariants import (
    ValidationReport,
    check_graphs,
    check_region,
    check_result,
    check_trace,
    stats_snapshot,
)

__all__ = [
    "DEFAULT_THREADS",
    "LOOP_KERNELS",
    "loop_runtime_matrix",
    "graph_runtime_matrix",
    "run_differential_matrix",
    "run_registry_audit",
]

#: Thread counts of the cheap matrix (all within the physical cores of
#: the paper machine, where speedup ordering must hold).
DEFAULT_THREADS: tuple[int, ...] = (1, 2, 4, 8)

#: Reduced kernel sizes: big enough that per-chunk overheads stay minor
#: (the ordering checks have modest slack), small enough for CI.
LOOP_KERNELS: dict[str, int] = {
    "axpy": 400_000,
    "sum": 400_000,
    "matvec": 2_000,
    "matmul": 128,
}

#: One thread may cost at most this multiple of the raw roofline serial
#: time (covers fork/join, chunk dispatch, thread creation).
_SERIAL_SLACK = 1.5
_SERIAL_ABS_SLACK = 1e-3
#: More threads may never cost more than this multiple of T_1 (covers
#: ramp-up serialization and placement penalties at these sizes).
_SPEEDUP_SLACK = 1.25
#: Single-thread busy time of any two runtimes on the same loop may
#: differ at most by this factor (roofline max-vs-sum plus split tasks).
_EQUALITY_SPREAD = 2.0


def _kernel_space(name: str, machine, n: int) -> IterSpace:
    from repro.kernels import axpy, matmul, matvec, sumreduce

    modules = {"axpy": axpy, "sum": sumreduce, "matvec": matvec, "matmul": matmul}
    return modules[name].space(machine, n)


def loop_runtime_matrix() -> dict[str, tuple[str, dict]]:
    """Every loop runtime x schedule combination under test, as
    ``label -> (executor, params)`` of a :class:`LoopRegion`."""
    return {
        "worksharing/static": ("worksharing", {"schedule": "static"}),
        "worksharing/dynamic": ("worksharing", {"schedule": "dynamic"}),
        "worksharing/guided": ("worksharing", {"schedule": "guided"}),
        "workstealing/cilk_for/the": ("stealing_loop", {"style": "cilk_for", "deque": "the"}),
        "workstealing/cilk_for/locked": (
            "stealing_loop", {"style": "cilk_for", "deque": "locked"}
        ),
        "workstealing/flat/the": ("stealing_loop", {"style": "flat", "deque": "the"}),
        "workstealing/flat/locked": ("stealing_loop", {"style": "flat", "deque": "locked"}),
        "threadpool/thread": ("threadpool", {"mode": "thread"}),
        "threadpool/async": ("threadpool", {"mode": "async"}),
        "charm/loop": ("charm_loop", {}),
        "hpx/loop": ("hpx_loop", {}),
        "mpi/loop": ("mpi_loop", {}),
    }


def graph_runtime_matrix() -> dict[str, tuple[str, dict]]:
    """Every task-graph runtime under test (fib-style spawn trees), as
    ``label -> (executor, params)`` of a :class:`TaskRegion`."""
    return {
        "stealing/the": ("stealing", {"deque": "the"}),
        "stealing/locked": ("stealing", {"deque": "locked"}),
        "stealing/the/work_first": ("stealing", {"deque": "the", "work_first": True}),
        "threadpool_graph/async": ("threadpool_graph", {"mode": "async"}),
        "charm_graph": ("charm_graph", {}),
        "hpx_graph": ("hpx_graph", {}),
        "mpi_graph": ("mpi_graph", {}),
    }


def _check_case(
    rep: ValidationReport,
    region: Union[LoopRegion, TaskRegion],
    threads: Sequence[int],
    ctx: ExecContext,
    where: str,
    *,
    serial: Optional[float] = None,
    per_thread: float = 0.0,
) -> dict[int, RegionResult]:
    """Run one (workload, runtime) cell across ``threads`` and check it.

    Each run goes through :func:`~repro.runtime.run.execute_region` with
    a fresh :class:`~repro.obs.tracer.Tracer`; the first run's trace is
    audited by :func:`~repro.validate.invariants.check_trace`.

    ``per_thread`` is the modelled per-thread fixed cost (serial thread
    creation + join for the bare-thread runtime) that legitimately makes
    T_p grow with p on small inputs — the speedup-ordering check allows
    it on top of the slack factor.
    """
    results: dict[int, RegionResult] = {}
    for p in threads:
        trace, trace2 = Tracer(), Tracer()
        r1 = execute_region(region, p, ctx, tracer=trace)
        r2 = execute_region(region, p, ctx, tracer=trace2)
        rep.check(
            stats_snapshot(r1) == stats_snapshot(r2),
            "determinism",
            f"{where} p={p}",
            f"repeated runs disagree: {r1.time!r} vs {r2.time!r}",
        )
        check_region(r1, ctx=ctx, report=rep, where=f"{where} p={p}")
        rep.check(
            trace.spans == trace2.spans and trace.engine_events == trace2.engine_events,
            "determinism-trace",
            f"{where} p={p}",
            "repeated runs emitted different event traces",
        )
        check_trace(trace, [r1], report=rep, where=f"{where} p={p}")
        results[p] = r1
    if 1 in threads:
        t1 = results[1].time
        if serial is not None:
            rep.check(
                t1 >= serial * (1 - 1e-9),
                "serial-lower",
                where,
                f"T_1 {t1:.9g} below raw serial time {serial:.9g}",
            )
            rep.check(
                t1 <= serial * _SERIAL_SLACK + _SERIAL_ABS_SLACK,
                "serial-band",
                where,
                f"T_1 {t1:.9g} not within {_SERIAL_SLACK}x of serial {serial:.9g}",
            )
        for p, res in results.items():
            if p > 1:
                allowed = t1 * _SPEEDUP_SLACK + p * per_thread
                rep.check(
                    res.time <= allowed,
                    "speedup-ordering",
                    f"{where} p={p}",
                    f"T_{p} {res.time:.9g} exceeds allowed {allowed:.9g} "
                    f"({_SPEEDUP_SLACK}x T_1 {t1:.9g} + {p} threads overhead)",
                )
    return results


def _per_thread_allowance(combo: str, ctx: ExecContext) -> float:
    """Modelled fixed cost per created thread for the given runtime."""
    if combo.startswith("threadpool"):
        c = ctx.costs
        if combo.endswith("async"):
            return c.async_create + c.future_get
        return c.thread_create + c.thread_join
    return 0.0


def run_differential_matrix(
    ctx: Optional[ExecContext] = None,
    *,
    threads: Sequence[int] = DEFAULT_THREADS,
    fib_n: int = 14,
    report: Optional[ValidationReport] = None,
) -> ValidationReport:
    """Cross-check every kernel x runtime x schedule combination."""
    from repro.kernels import fib

    ctx = ctx or ExecContext()
    rep = report if report is not None else ValidationReport()

    for kernel, n in LOOP_KERNELS.items():
        space = _kernel_space(kernel, ctx.machine, n)
        serial = ctx.duration(space.total_work, space.total_bytes, space.locality, 1)
        busy_at_1: dict[str, float] = {}
        for combo, (executor, params) in loop_runtime_matrix().items():
            where = f"diff[{kernel}] {combo}"
            results = _check_case(
                rep, LoopRegion(space, executor, params), threads, ctx, where,
                serial=serial, per_thread=_per_thread_allowance(combo, ctx),
            )
            if 1 in results:
                busy_at_1[combo] = results[1].total_busy
        # Useful-work equality: every runtime executed the same loop.
        if busy_at_1:
            lo_combo = min(busy_at_1, key=busy_at_1.get)
            hi_combo = max(busy_at_1, key=busy_at_1.get)
            lo, hi = busy_at_1[lo_combo], busy_at_1[hi_combo]
            rep.check(
                hi <= lo * _EQUALITY_SPREAD + 1e-12,
                "useful-work-equality",
                f"diff[{kernel}]",
                f"single-thread busy disagrees {hi / max(lo, 1e-30):.3f}x: "
                f"{hi_combo}={hi:.9g} vs {lo_combo}={lo:.9g}",
            )

    graph = fib.graph(fib_n)
    serial_graph = graph.total_work()
    for combo, (executor, params) in graph_runtime_matrix().items():
        where = f"diff[fib({fib_n})] {combo}"
        # threadpool graphs pay a huge (modelled, intentional) per-task
        # thread-creation cost, so the serial band only applies to the
        # work-stealing runtimes.
        band = serial_graph if combo.startswith("stealing") else None
        _check_case(
            rep, TaskRegion(graph, executor, params), threads, ctx, where,
            serial=band,
        )
    return rep


def run_registry_audit(
    ctx: Optional[ExecContext] = None,
    *,
    threads: Sequence[int] = (1, 4),
    versions: Optional[Sequence[str]] = None,
    report: Optional[ValidationReport] = None,
) -> ValidationReport:
    """Invariant-check every registered workload x version.

    Workloads run at their ``validation_params`` (tiny, structure-
    preserving sizes).  A :class:`ThreadExplosionError` is the modelled
    C++11 hang, not an invariant violation, and is skipped.  An explicit
    ``versions`` sequence restricts the audit to those version names
    (``repro validate --model``).
    """
    from repro.core.registry import WORKLOADS

    ctx = ctx or ExecContext()
    rep = report if report is not None else ValidationReport()
    for name, spec in sorted(WORKLOADS.items()):
        params = dict(spec.validation_params or spec.default_params)
        for version in spec.versions:
            if versions is not None and version not in versions:
                continue
            for p in threads:
                try:
                    prog = spec.build(version, ctx.machine, **params)
                    res = run_program(prog, p, ctx, version)
                except ThreadExplosionError:
                    continue  # the paper's reproduced "system hangs"
                where = f"registry[{name}/{version}] p={p}"
                check_graphs(prog, p, report=rep, where=where)
                check_result(res, ctx=ctx, report=rep, where=where)
    return rep
