"""Engine tiers: wall-clock cost of producing one result per fidelity.

The estimate-vs-simulate contract is an accuracy/cost trade, and the
accuracy half is pinned by ``tests/test_tiers_accuracy.py``.  This
benchmark pins the cost half: on a representative sweep cell the tier-0
analytic estimate must be at least an order of magnitude cheaper than
the tier-2 simulation.

Times here are *host* wall-clock seconds (``perf_counter``, best of
several repeats), not simulated seconds.
"""

import time

from conftest import run_once

from repro.core.registry import WORKLOADS
from repro.runtime.run import run_program
from repro.sim.tiers import estimate_program

WORKLOAD = "axpy"
VERSION = "cilk_for"
P = 16
REPEATS = 3


def _best_of(fn, repeats=REPEATS):
    """Best-of-N wall-clock seconds for one call (minimum filters out
    scheduler noise; the work itself is deterministic)."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def bench_engine_tiers(benchmark, ctx, save):
    spec = WORKLOADS[WORKLOAD]
    params = dict(spec.default_params)
    program = spec.build(VERSION, ctx.machine, **params)

    def measure():
        out = {}
        out["tier 2 (DES)"] = _best_of(
            lambda: run_program(spec.build(VERSION, ctx.machine, **params), P, ctx, VERSION)
        )
        out["tier 0 (analytic)"] = _best_of(
            lambda: estimate_program(spec.build(VERSION, ctx.machine, **params), P, ctx, VERSION)
        )
        return out

    out = run_once(benchmark, measure)
    t2 = out["tier 2 (DES)"]
    t0 = out["tier 0 (analytic)"]
    est = estimate_program(program, P, ctx, VERSION)
    save(
        "engine_tiers",
        f"{WORKLOAD}/{VERSION} (n={params['n']:,}) at p={P}: "
        f"host cost per result, best of {REPEATS}\n"
        + "\n".join(f"  {k:26s} {v * 1e3:9.2f} ms" for k, v in out.items())
        + f"\ntier-0 cost ratio {t2 / t0:7.1f}x  (declared error bound "
        f"{est.error_bound:.3f})",
    )

    # the headline acceptance: an analytic estimate is >= 10x cheaper
    # than simulating the cell (in practice well past 100x at paper sizes)
    assert t2 / t0 >= 10.0
    # and the estimate still carries a usable (sub-100%) error bound
    assert 0.0 < est.error_bound < 1.0
