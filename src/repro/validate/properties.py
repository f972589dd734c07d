"""Seeded random-program harness (property tests without extra deps).

The invariant checker and differential oracle exercise the executors on
the *curated* workloads; this module closes the gap with adversarial
inputs: randomly generated programs mixing serial regions, skewed
parallel loops under every executor, and random DAGs, built from a
seeded :class:`random.Random` so every failure is reproducible from its
program index alone.  Each generated program is executed at several
thread counts (including an SMT-oversubscribed one on a deliberately
tiny machine) twice: traced, with the result and its trace audited by
:func:`repro.validate.invariants.check_result`, and untraced, which must
give the same region stats (tracing changes nothing).
"""

from __future__ import annotations

import random
from typing import Optional, Sequence

import numpy as np

from repro.runtime.base import ExecContext
from repro.runtime.run import run_program
from repro.sim.machine import Machine
from repro.sim.task import (
    IterSpace,
    LoopRegion,
    Program,
    SerialRegion,
    TaskGraph,
    TaskRegion,
)
from repro.validate.invariants import (
    ValidationReport,
    check_result,
    stats_snapshot,
)

__all__ = [
    "SMALL_MACHINE",
    "DEFAULT_THREADS",
    "random_space",
    "random_graph",
    "random_program",
    "run_property_suite",
]

#: A deliberately tiny machine so that modest thread counts already hit
#: the interesting regimes (socket spanning at 5 threads, SMT sharing
#: and oversubscription at 9) without simulating wide sweeps.
SMALL_MACHINE = Machine(sockets=2, cores_per_socket=4, smt=2, name="validate-small")

#: Thread counts per program: serial, in-socket, cross-socket, SMT+1.
DEFAULT_THREADS: tuple[int, ...] = (1, 2, 5, 9)


def random_space(rng: random.Random, *, max_iter: int = 5_000) -> IterSpace:
    """A random iteration space: uniform or heavily skewed per-iteration
    cost, optionally memory-bound with random access locality."""
    niter = rng.randint(40, max_iter)
    work_per_iter = 10.0 ** rng.uniform(-8.5, -6.5)
    if rng.random() < 0.5:
        bytes_per_iter = float(rng.choice([8, 24, 64, 256]))
        locality = rng.choice([1.0, 0.8, 0.3, 0.0])
    else:
        bytes_per_iter, locality = 0.0, 1.0
    if rng.random() < 0.5:
        return IterSpace.uniform(niter, work_per_iter, bytes_per_iter, locality)
    # skewed profile: triangular ramp plus random spikes
    nprng = np.random.default_rng(rng.getrandbits(32))
    work = work_per_iter * (0.25 + np.linspace(0.0, 1.5, niter))
    spikes = nprng.random(niter) < 0.02
    work = work + spikes * work_per_iter * 25.0
    membytes = np.full(niter, bytes_per_iter)
    return IterSpace.from_profile(work, membytes, locality, name="skewed")


def random_graph(rng: random.Random, *, max_tasks: int = 60) -> TaskGraph:
    """A random DAG (topological by construction, like real spawn trees)."""
    g = TaskGraph("random-dag")
    ntasks = rng.randint(1, max_tasks)
    for tid in range(ntasks):
        ndeps = rng.randint(0, min(tid, 3))
        deps = rng.sample(range(tid), ndeps) if ndeps else ()
        work = 10.0 ** rng.uniform(-7.5, -5.5)
        if rng.random() < 0.3:
            membytes = float(rng.choice([512, 4096, 65536]))
            locality = rng.choice([1.0, 0.5, 0.1])
        else:
            membytes, locality = 0.0, 1.0
        g.add(work, membytes, locality, deps=sorted(deps), tag="rnd")
    return g


def _random_region(rng: random.Random):
    kind = rng.choice(
        ["serial", "worksharing", "stealing_loop", "threadpool", "stealing", "threadpool_graph"]
    )
    if kind == "serial":
        return SerialRegion(
            work=10.0 ** rng.uniform(-6.0, -4.0),
            membytes=float(rng.choice([0, 0, 4096, 262144])),
            locality=rng.choice([1.0, 0.5]),
        )
    if kind == "worksharing":
        return LoopRegion(
            random_space(rng),
            "worksharing",
            {
                "schedule": rng.choice(["static", "dynamic", "guided"]),
                "reduction": rng.random() < 0.3,
            },
        )
    if kind == "stealing_loop":
        return LoopRegion(
            random_space(rng),
            "stealing_loop",
            {
                "style": rng.choice(["cilk_for", "flat"]),
                "deque": rng.choice(["the", "locked"]),
            },
        )
    if kind == "threadpool":
        return LoopRegion(
            random_space(rng),
            "threadpool",
            {"mode": rng.choice(["thread", "async"])},
        )
    if kind == "stealing":
        return TaskRegion(
            random_graph(rng),
            "stealing",
            {
                "deque": rng.choice(["the", "locked"]),
                "work_first": rng.random() < 0.5,
                "central_queue": rng.random() < 0.2,
            },
        )
    return TaskRegion(random_graph(rng), "threadpool_graph", {"mode": "async"})


def random_program(rng: random.Random, index: int = 0) -> Program:
    """A random multi-region program exercising every executor."""
    prog = Program(f"prop-{index}")
    for _ in range(rng.randint(1, 4)):
        prog.add(_random_region(rng))
    return prog


def run_property_suite(
    *,
    seed: int = 0,
    programs: int = 20,
    threads: Sequence[int] = DEFAULT_THREADS,
    ctx: Optional[ExecContext] = None,
    report: Optional[ValidationReport] = None,
) -> ValidationReport:
    """Generate ``programs`` random programs and audit every execution."""
    ctx = ctx or ExecContext(machine=SMALL_MACHINE)
    rep = report if report is not None else ValidationReport()
    rng = random.Random(seed)
    for i in range(programs):
        prog = random_program(rng, i)
        for p in threads:
            where = f"prop[seed={seed} i={i}] p={p}"
            traced = run_program(prog, p, ctx, trace=True)
            check_result(traced, ctx=ctx, report=rep, where=where)
            plain = run_program(prog, p, ctx)
            rep.check(
                [stats_snapshot(r) for r in traced.regions]
                == [stats_snapshot(r) for r in plain.regions],
                "determinism",
                where,
                f"traced and untraced runs disagree: {traced.time!r} vs {plain.time!r}",
            )
    return rep
