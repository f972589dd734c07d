"""Roofline-style task duration model.

A simulated task carries ``work`` (seconds of pure compute on one core at
nominal clock, nothing else running) and ``membytes`` (bytes of memory
traffic it generates past the private caches) with a ``locality`` factor
describing how cache/prefetcher friendly that traffic is.

:class:`MemoryModel` converts these into a wall-clock duration given how
many threads are concurrently active: compute time is scaled by the
machine's SMT/oversubscription speed, memory time by the per-thread
bandwidth share, and the task takes the roofline maximum of the two
(compute and memory transfer overlap on out-of-order cores).

This is the only module that turns (work, bytes, locality, active) into
seconds; every executor and tier-0 estimator calls one of its three
entry points, so a task costs the same under every runtime:

- :meth:`MemoryModel.duration` — the scalar reference;
- :meth:`MemoryModel.memoized` — the same formula as a per-region
  closure with the machine lookups cached (the event-driven executors'
  per-task hot path);
- :meth:`MemoryModel.durations` — the same formula over arrays, with a
  scalar or per-task locality (the analytic executors and estimators,
  and the AMT graph walk, whose ``active`` is fixed per region).

The memoized closure also hands out its compute-speed table, as its
``speeds`` attribute, so that a hot loop can charge the formula without
a closure call.  The work-stealing event loop
(``StealingScheduler._drain``) inlines the whole formula: the division
by ``speeds[active]``, then, for a task that moves bytes, the bandwidth
per ``(active, locality)`` from its own per-region cache and the
roofline maximum.  The AMT graph walk
(``repro.runtime.amt._run_amt_graph``) inlines the zero-byte case on a
graph that moves no bytes (fib).  A duration function without that
attribute (the scalar reference) is called per task.

All three perform the same IEEE operations in the same order, so they
agree bit for bit.  This model is what produces the scaling plateaus the
paper observes for bandwidth-bound workloads (Axpy, BFS) without any
change to the schedulers; ``benchmarks/bench_ablation_bandwidth.py``
ablates it by running on a :class:`Machine` with 1e18 B/s of bandwidth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from repro.sim.machine import Machine

__all__ = ["MemoryModel"]


@dataclass(frozen=True)
class MemoryModel:
    """Task duration model bound to a :class:`~repro.sim.machine.Machine`."""

    machine: Machine

    def duration(
        self,
        work: float,
        membytes: float = 0.0,
        locality: float = 1.0,
        active: int = 1,
    ) -> float:
        """Wall-clock seconds for one task.

        Parameters
        ----------
        work:
            Seconds of compute on an unshared core.
        membytes:
            Bytes of memory traffic beyond private caches.
        locality:
            Access pattern friendliness in [0, 1] (1 = streaming).
        active:
            Number of software threads concurrently active machine-wide,
            used to compute both the SMT compute share and the bandwidth
            share.  Clamped to at least 1.
        """
        if not (work >= 0 and membytes >= 0):  # NaN fails both comparisons
            raise ValueError("work and membytes must be non-negative")
        active = max(1, active)
        compute = work / self.machine.compute_speed(active)
        if membytes == 0.0:
            return compute
        mem = membytes / self.machine.bandwidth_per_thread(active, locality)
        return max(compute, mem)

    def memoized(self, max_active: int) -> Callable[[float, float, float, int], float]:
        """:meth:`duration` for one region with at most ``max_active``
        threads active, as a ``duration(work, membytes, locality,
        active)`` closure.

        Machine methods are pure, so the compute speed per ``active`` and
        the bandwidth per ``(active, locality)`` are cached; the result is
        bit-identical to :meth:`duration` (inputs are not re-validated).
        The closure holds no reference to its caller, so it never keeps
        a region's graph alive in a reference cycle.

        Its ``speeds`` attribute is the compute-speed table: entry ``a``
        (1..``max_active``) is the machine's speed with ``a`` threads
        active, so a task without memory traffic lasts exactly
        ``work / speeds[max(1, active)]``.  The work-stealing event loop
        inlines this closure's body rather than calling it, so any change
        to the formula here must be made there too; with the scalar
        reference patched in (``tests/test_tiers_properties.py``) the
        loop calls :meth:`duration` instead, which is what keeps the two
        compared.
        """
        machine = self.machine
        speed = [1.0] + [machine.compute_speed(a) for a in range(1, max_active + 1)]
        bws: dict[tuple[int, float], float] = {}

        def duration(work: float, membytes: float, locality: float, active: int) -> float:
            if active < 1:
                active = 1
            compute = work / speed[active]
            if membytes == 0.0:
                return compute
            key = (active, locality)
            bw = bws.get(key)
            if bw is None:
                bw = bws[key] = machine.bandwidth_per_thread(active, locality)
            mem = membytes / bw
            return max(compute, mem)

        duration.speeds = speed
        return duration

    def durations(
        self,
        work: np.ndarray,
        membytes: np.ndarray,
        locality: Union[float, np.ndarray],
        active: int,
    ) -> np.ndarray:
        """:meth:`duration` of every task in equal-length arrays (or
        sequences, such as a task graph's columns), all with ``active``
        threads active.

        ``locality`` is one value for all tasks (a loop's iteration
        space) or a per-task array (a task graph); each distinct value is
        looked up once.  Tasks without memory traffic take their compute
        time, as in the scalar form.
        """
        machine = self.machine
        active = max(1, active)
        work = np.asarray(work, dtype=np.float64)
        membytes = np.asarray(membytes, dtype=np.float64)
        compute = work / machine.compute_speed(active)
        if np.ndim(locality) == 0:
            return np.maximum(compute, membytes / machine.bandwidth_per_thread(active, locality))
        locality = np.asarray(locality, dtype=np.float64)
        if not membytes.any():
            return compute
        for loc in np.unique(locality):
            mask = locality == loc
            bw = machine.bandwidth_per_thread(active, float(loc))
            compute[mask] = np.maximum(compute[mask], membytes[mask] / bw)
        return compute
