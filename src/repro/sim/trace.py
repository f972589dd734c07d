"""Execution traces and derived statistics.

Every runtime executor produces a :class:`RegionResult`; the experiment
driver folds them into a :class:`SimResult` for the whole program run.
Statistics deliberately separate *useful work* from *overhead* so that
the report layer can explain a slowdown the way the paper does ("the
workstealing operations serialize the distribution of loop chunks").
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["WorkerStats", "RegionResult", "SimResult"]


@dataclass
class WorkerStats:
    """Per-worker accounting for one region execution."""

    busy: float = 0.0          # seconds executing task/chunk work
    overhead: float = 0.0      # seconds in scheduling (pushes, pops, steals, dispatch)
    tasks: int = 0             # tasks or chunks executed
    steals: int = 0            # steals performed by this worker


@dataclass
class RegionResult:
    """Outcome of executing one region on ``nthreads`` workers."""

    time: float
    nthreads: int
    workers: list[WorkerStats] = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    @property
    def total_busy(self) -> float:
        return sum(w.busy for w in self.workers)

    @property
    def total_overhead(self) -> float:
        return sum(w.overhead for w in self.workers)

    @property
    def total_tasks(self) -> int:
        return sum(w.tasks for w in self.workers)

    @property
    def total_steals(self) -> int:
        return sum(w.steals for w in self.workers)

    def utilization(self) -> float:
        """Fraction of worker-seconds spent on useful work."""
        denom = self.time * max(1, self.nthreads)
        return self.total_busy / denom if denom > 0 else 0.0


@dataclass
class SimResult:
    """Outcome of a full program run at one thread count.

    ``trace`` holds the :class:`~repro.obs.tracer.Tracer` that observed
    the run when one was passed to
    :func:`~repro.runtime.run.run_program` (``None`` otherwise — the
    default path carries no per-event state at all).
    """

    program: str
    version: str
    nthreads: int
    time: float
    regions: list[RegionResult] = field(default_factory=list)
    trace: object = None

    @property
    def total_busy(self) -> float:
        return sum(r.total_busy for r in self.regions)

    @property
    def total_overhead(self) -> float:
        return sum(r.total_overhead for r in self.regions)

    @property
    def total_tasks(self) -> int:
        return sum(r.total_tasks for r in self.regions)

    @property
    def total_steals(self) -> int:
        return sum(r.total_steals for r in self.regions)

    def utilization(self) -> float:
        denom = self.time * max(1, self.nthreads)
        return self.total_busy / denom if denom > 0 else 0.0

    def overhead_fraction(self) -> float:
        """Overhead worker-seconds relative to busy worker-seconds."""
        busy = self.total_busy
        return self.total_overhead / busy if busy > 0 else 0.0

    def metrics(self):
        """Merged metrics registry over every region plus run-level gauges.

        Lazy front for :func:`repro.obs.metrics.result_metrics`."""
        from repro.obs.metrics import result_metrics

        return result_metrics(self)

    def describe(self) -> str:
        return (
            f"{self.program}/{self.version} p={self.nthreads}: "
            f"t={self.time:.6f}s util={self.utilization():.1%} "
            f"ovh={self.total_overhead * 1e6:.1f}us steals={self.total_steals}"
        )


def render_gantt(
    intervals: list[tuple[int, float, float, str]],
    nworkers: int,
    width: int = 78,
    end: float = 0.0,
) -> str:
    """ASCII Gantt chart of an execution trace.

    ``intervals`` are ``(worker, start, end, tag)`` tuples, e.g. from
    :meth:`Tracer.intervals() <repro.obs.tracer.Tracer.intervals>`.
    Each worker gets one row; busy time is drawn with
    the first letter of the interval's tag, idle time with ``.``.
    """
    if nworkers <= 0:
        raise ValueError("nworkers must be positive")
    if width <= 0:
        raise ValueError("width must be positive")
    horizon = max(end, max((e for _w, _s, e, _t in intervals), default=0.0))
    if horizon <= 0:
        return "(empty trace)"
    rows = [["."] * width for _ in range(nworkers)]
    for w, s, e, tag in intervals:
        if not 0 <= w < nworkers:
            raise ValueError(f"interval names worker {w} outside 0..{nworkers - 1}")
        c0 = int(s / horizon * width)
        c1 = max(c0 + 1, int(e / horizon * width))
        ch = (tag or "#")[0]
        for c in range(c0, min(c1, width)):
            rows[w][c] = ch
    lines = [f"0 {'-' * (width - 4)} {horizon * 1e3:.3f}ms"]
    for w, row in enumerate(rows):
        lines.append(f"w{w:<3d} {''.join(row)}")
    return "\n".join(lines)


def speedup_series(times: np.ndarray) -> np.ndarray:
    """Speedups relative to the first entry of a time series."""
    times = np.asarray(times, dtype=np.float64)
    if times.size == 0:
        return times
    if (times <= 0).any():
        raise ValueError("times must be positive")
    return times[0] / times
