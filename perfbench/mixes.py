"""The benchmark's inputs: the simulated-cell list, the tier-0 matrix and
the seeded serve stream.

Everything here is a pure function of its arguments, so the same seed
always regenerates the same inputs.  Nothing is imported from ``repro``
at module level: the serve stream is generated in the client process
before the package is timed.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass

#: Thread counts of the paper's figures (``repro.core.experiment.PAPER_THREADS``).
PAPER_THREADS = (1, 2, 4, 8, 16, 32, 36)

# ---------------------------------------------------------------------------
# sim-cells: a fixed, ordered list of simulated cells at the default fidelity
# ---------------------------------------------------------------------------
#: (workload, version, threads).  Weighted toward the discrete-event
#: work-stealing path, with one or two cheap cells of every other
#: executor family the registry reaches.
SIM_CELLS: tuple[tuple[str, str, int], ...] = (
    ("fib", "cilk_spawn", 36),      # stealing graph, ~86k tasks
    ("axpy", "cilk_for", 16),       # stealing loop
    ("bfs", "cilk_for", 8),         # stealing loop, 20 regions
    ("lud", "omp_task", 16),        # stealing loop + serial regions
    ("fib", "hpx", 16),             # AMT graph, ~86k tasks
    ("axpy", "omp_for", 36),        # worksharing
    ("hotspot", "omp_for", 16),     # worksharing
    ("matvec", "cxx_thread", 8),    # threadpool
    ("sum", "cxx_async", 16),       # threadpool
    ("srad", "mpi", 32),            # AMT loop
    ("lavamd", "charm", 16),        # AMT loop
    ("taskbench", "hpx", 8),        # AMT graph
)

# ---------------------------------------------------------------------------
# estimate-matrix: the whole registry at fidelity 0
# ---------------------------------------------------------------------------
#: Registry-default parameters everywhere except fib, whose default
#: ``n=22`` spends ~90% of the matrix in fib's spawn-graph builds.  At
#: ``n=16`` fib takes about a third of the matrix and no cell hits the
#: C++11 thread-explosion error.
MATRIX_PARAMS: dict[str, dict] = {"fib": {"n": 16}}

# ---------------------------------------------------------------------------
# serve-mixed: a seeded closed-loop stream of matrix queries
# ---------------------------------------------------------------------------
#: Loop workloads the untraced queries draw from (no fib).
SERVE_WORKLOADS = (
    "axpy", "sum", "matvec", "matmul", "hotspot", "lud", "lavamd", "srad",
    "bfs", "taskbench",
)
#: Versions left out of untraced queries: ``cilk_for`` by design, and the
#: discrete-event stealing versions, whose 10-90 ms cells would make the
#: latency tail depend on which cells a seed happens to draw.
SERVE_EXCLUDED_VERSIONS = ("cilk_for", "cilk_spawn", "omp_task")
SERVE_THREADS = (2, 4, 8, 16, 32)
SERVE_FIDELITIES = (0, 2)

#: Traced fidelity-2 stealing cell, asked for by every traced query.  Its
#: 0.76 MB codec document makes traced requests the latency tail; one
#: document size keeps the 90th percentile inside that tail rather than
#: on the edge between two sizes.
TRACED_CELLS: tuple[tuple[str, str, int], ...] = (
    ("lud", "omp_task", 16),
)

#: Connections, and so the most requests in one round of the closed loop.
SERVE_CONNECTIONS = 2

#: The stream's requests are one fixed multiset, drawn once with
#: ``MIX_SEED``; the workload seed orders them.  So every seed serves
#: the same cells with the same hits and misses, and runs differ only in
#: order.  The multiset holds
#: ``FRESH_QUERIES`` untraced queries with pairwise disjoint cells,
#: ``REPEAT_REQUESTS`` repeats of them, ``TRACED_REQUESTS`` traced
#: queries, and ``PAIR_ROUNDS`` rounds that send one more disjoint query
#: on both connections at once, which exercises single-flight joins.
#: The proportions put each reported percentile inside one cluster of
#: similar requests: repeats (60%) hold the median, first-time queries
#: (20%) sit above them, and traced queries (20%) hold the 90th.
MIX_SEED = 0
FRESH_QUERIES = 12
REPEAT_REQUESTS = 72
TRACED_REQUESTS = 24  # a multiple of len(TRACED_CELLS)
PAIR_ROUNDS = 6


@dataclass(frozen=True)
class Query:
    """One matrix query of the stream (mirrors ``repro.serve.MatrixQuery``)."""

    workload: str
    version: str
    threads: tuple[int, ...]
    fidelity: int
    trace: bool = False

    def to_dict(self) -> dict:
        return {
            "workload": self.workload,
            "versions": [self.version],
            "threads": list(self.threads),
            "fidelity": self.fidelity,
            "trace": self.trace,
        }

    def labels(self) -> list[str]:
        return [
            cell_label(self.workload, self.version, p, self.fidelity, self.trace)
            for p in self.threads
        ]


#: Sent alone during set-up, outside the stream's cells.  The server
#: forks its pool worker at the first simulated miss; forking while
#: another server thread is importing a module (a first tier-0 estimate)
#: can leave the worker waiting forever on that module's import lock.
WARMUP = Query("axpy", "omp_for", (1,), 2)


def cell_label(workload: str, version: str, nthreads: int, fidelity: int = 2,
               trace: bool = False) -> str:
    """The reference key of one cell, e.g. ``lud/omp_task/p16/f2/t1``."""
    return f"{workload}/{version}/p{nthreads}/f{fidelity}/t{int(trace)}"


def serve_versions(workload: str) -> tuple[str, ...]:
    """Versions the untraced serve queries draw from."""
    from repro.core.registry import get_workload

    return tuple(v for v in get_workload(workload).versions
                 if v not in SERVE_EXCLUDED_VERSIONS)


def serve_universe() -> list[tuple[str, str, int, int, bool]]:
    """Every cell any serve stream can ask for, in a fixed order."""
    cells = [
        (w, v, p, fid, False)
        for w in SERVE_WORKLOADS
        for v in serve_versions(w)
        for fid in SERVE_FIDELITIES
        for p in SERVE_THREADS
    ]
    cells += [(w, v, p, 2, True) for w, v, p in TRACED_CELLS]
    cells.append((WARMUP.workload, WARMUP.version, WARMUP.threads[0], WARMUP.fidelity, False))
    return cells


def serve_mix(versions: dict[str, tuple[str, ...]]) -> tuple[list[Query], list[Query]]:
    """The fixed multiset of requests: (single requests, pair-round queries).

    ``versions`` maps each serve workload to its versions (see
    :func:`serve_versions`), passed in so the mix needs no package import.
    """
    rng = random.Random(MIX_SEED)
    seen: set[str] = set()
    queries: list[Query] = []
    while len(queries) < FRESH_QUERIES + PAIR_ROUNDS:
        w = rng.choice(SERVE_WORKLOADS)
        q = Query(
            workload=w,
            version=rng.choice(versions[w]),
            threads=tuple(sorted(rng.sample(SERVE_THREADS, rng.choice((1, 1, 2, 3))))),
            fidelity=rng.choice(SERVE_FIDELITIES),
        )
        if seen.isdisjoint(q.labels()):
            seen.update(q.labels())
            queries.append(q)
    fresh, pairs = queries[:FRESH_QUERIES], queries[FRESH_QUERIES:]
    repeats = [rng.choice(fresh) for _ in range(REPEAT_REQUESTS)]
    traced = [Query(w, v, (p,), 2, trace=True) for w, v, p in TRACED_CELLS]
    return fresh + repeats + traced * (TRACED_REQUESTS // len(traced)), pairs


def serve_stream(seed: int, versions: dict[str, tuple[str, ...]]) -> list[list[Query]]:
    """The seeded request stream: a list of rounds of concurrent queries.

    The queries of a round are sent at once, one per connection, and the
    next round starts when all have answered (a closed loop).  Every
    single request of :func:`serve_mix` travels alone in its round; each
    pair round sends one query on both connections at once.  The seed
    shuffles the rounds, and whichever occurrence of a query comes first
    is its miss.  No single request shares the server with another, so
    its latency does not depend on a partner the seed gave it.
    """
    singles, pairs = serve_mix(versions)
    rounds = [[q] for q in singles] + [[q] * SERVE_CONNECTIONS for q in pairs]
    random.Random(seed).shuffle(rounds)
    return rounds


def stream_digest(rounds: list[list[Query]]) -> str:
    """SHA-256 of the stream's canonical JSON: same seed, same digest."""
    doc = [[q.to_dict() for q in batch] for batch in rounds]
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def expected_serve_counts(rounds: list[list[Query]]) -> dict[str, int]:
    """Server counters the stream must produce on a fresh store.

    Every distinct cell is resolved once by its first requester (one
    store, and one simulation or estimate by tier).  Every later request
    for it is a store hit or, when it overlaps the first, a single-flight
    join; which of the two depends on timing, so only their sum is exact.
    """
    seen: set[str] = set()
    counts = {"requests": 0, "cells": 0, "stores": 0, "simulations": 0,
              "estimates": 0, "hits_or_joins": 0}
    for batch in rounds:
        for q in batch:
            counts["requests"] += 1
            for label in q.labels():
                counts["cells"] += 1
                if label in seen:
                    counts["hits_or_joins"] += 1
                    continue
                seen.add(label)
                counts["stores"] += 1
                counts["estimates" if q.fidelity == 0 else "simulations"] += 1
    return counts
