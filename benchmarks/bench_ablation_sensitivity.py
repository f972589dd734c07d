"""Ablation: sensitivity of the headline findings to calibration.

The cost constants are order-of-magnitude estimates; the reproduction
only counts if the paper's conclusions survive perturbing them.  Each
headline metric is re-evaluated with its most relevant constants scaled
by 1/4x ... 4x:

- Fib (omp_task / cilk_spawn ratio) under steal, spawn and deque costs;
- Axpy (cilk_for / omp_for gap) under bandwidth and penalty drivers.

"Stable" here means the *direction* of the finding never flips (ratio
stays > 1); magnitudes may drift — that is the point of the table.
Every row must be reached: a constant the metric never reads would
show a flat row that proves nothing.
"""

from conftest import run_once

from repro.core.experiment import run_experiment
from repro.core.metrics import version_ratio
from repro.core.sensitivity import cost_sensitivity, machine_sensitivity, render_sensitivity

FACTORS = (0.25, 0.5, 1.0, 2.0, 4.0)


def _fib_ratio(ctx) -> float:
    s = run_experiment(
        "fib", versions=("omp_task", "cilk_spawn"), threads=(8,), ctx=ctx, n=18
    )
    return version_ratio(s, "omp_task", "cilk_spawn", 8)


def _axpy_gap(ctx) -> float:
    s = run_experiment(
        "axpy", versions=("omp_for", "cilk_for"), threads=(4,), ctx=ctx, n=2_000_000
    )
    return version_ratio(s, "cilk_for", "omp_for", 4)


def bench_ablation_sensitivity(benchmark, ctx, save):
    def analyze():
        fib_rows = [
            cost_sensitivity(p, _fib_ratio, metric_name="fib omp/cilk ratio @p8",
                             factors=FACTORS, ctx=ctx)
            for p in ("the_steal", "locked_steal", "omp_task_spawn", "locked_push")
        ]
        axpy_rows = [
            cost_sensitivity("the_steal", _axpy_gap, metric_name="axpy cilk/omp gap @p4",
                             factors=FACTORS, ctx=ctx),
            machine_sensitivity("core_bandwidth", _axpy_gap,
                                metric_name="axpy cilk/omp gap @p4",
                                factors=FACTORS, ctx=ctx),
        ]
        return fib_rows, axpy_rows

    fib_rows, axpy_rows = run_once(benchmark, analyze)
    save(
        "ablation_sensitivity",
        render_sensitivity(fib_rows) + "\n\n" + render_sensitivity(axpy_rows),
    )

    # every row's parameter reaches its metric
    for r in fib_rows + axpy_rows:
        assert not r.unreached, r.parameter
    # direction of every finding survives the whole factor band
    for r in fib_rows:
        assert all(v > 1.0 for v in r.metric_values), r.parameter
        assert r.stable_within(2.0), r.parameter
    for r in axpy_rows:
        assert all(v > 1.2 for v in r.metric_values), r.parameter
