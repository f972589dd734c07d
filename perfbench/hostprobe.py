"""A fixed pure-Python reference workload that measures host speed.

The benchmark runs on shared virtual machines whose CPUs switch between
fast and slow spells (up to 1.8x slower, for seconds to minutes at a
time), as neighbours contend for the core and its caches.  :func:`probe`
times a fixed amount of work that imports nothing from ``repro`` and
resembles the simulator's host work: a discrete-event pass over a task
graph of tens of thousands of small objects, with a heap, dict and list
traffic and float arithmetic.  Its working set is megabytes, like a
simulated cell's, so cache contention slows it as much as the cells; a
probe that fits in the L1 cache normalised cell timings only half as
well.

The benchmark probes the host right before and right after each
measured operation, or block of short operations, and multiplies the
host seconds by :func:`scale` of the two probes.  The product reads the
same in a fast or a slow spell, while a change to the package still
moves it in full, because the probe's own work never changes.
"""

from __future__ import annotations

import gc
import heapq
import os
import random
from time import perf_counter

#: Seconds :func:`measure` reads on the reference host (a 2-vCPU Intel
#: Xeon virtual machine) in a fast spell.  Only ratios to it matter; it
#: fixes the scale at which normalised figures read as that host's
#: seconds.
NOMINAL_SECONDS = 0.050

#: Tasks in the probe's graph.
TASKS = 20000
WORKERS = 8


class _Task:
    __slots__ = ("tid", "cost", "deps", "owner")

    def __init__(self, tid: int, cost: float, deps: list, owner: int) -> None:
        self.tid = tid
        self.cost = cost
        self.deps = deps
        self.owner = owner


def _work() -> int:
    """One probe's work: build a random task graph and run a list
    schedule over it in event order; returns the count of tasks run."""
    rng = random.Random(1)
    tasks = [_Task(i, rng.random(), [rng.randrange(i) for _ in range(2)] if i else [],
                   i % WORKERS) for i in range(TASKS)]
    done: dict[int, float] = {}
    heap = [(0.0, 0)]
    clock = [0.0] * WORKERS
    while heap:
        t, tid = heapq.heappop(heap)
        task = tasks[tid]
        start = max(t, clock[task.owner], *(done.get(d, 0.0) for d in task.deps))
        end = start + task.cost
        clock[task.owner] = end
        done[tid] = end
        if tid + 1 < TASKS:
            heapq.heappush(heap, (end, tid + 1))
    return len(done)


def probe() -> float:
    """Seconds one probe takes now."""
    t0 = perf_counter()
    _work()
    return perf_counter() - t0


def measure() -> float:
    """The host's current probe time, with the collector run first and
    held off, so garbage left by the measured work is not charged to the
    probe."""
    gc.collect()
    gc.disable()
    try:
        return probe()
    finally:
        gc.enable()


def scale(before: float, after: float) -> float:
    """Factor that turns host seconds measured between two probes into
    reference-host seconds."""
    return 2.0 * NOMINAL_SECONDS / (before + after)


def pin_to_cpu(cpu: int) -> None:
    """Run this process, and every process it starts, on CPU ``cpu``.

    A probe measures the CPU it runs on; on a host whose CPUs slow down
    independently the measured work must share that CPU.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {cpu})
