"""Every ``CostModel`` constant reaches a run.

An ablation over a cost constant (``ExecContext.with_costs``,
``core/sensitivity.py``) is evidence only if the constant is read at run
time.  For each field, scaling it x4 must move at least one run of the
registry (validation params, p in {1, 4}), the task-graph programs the
registry does not build, or the Table III fault demos; the few fields
no run reaches are named below with the reason.
"""

from __future__ import annotations

import dataclasses
import functools

import pytest

from repro.core.registry import WORKLOADS
from repro.extensions import uts, wavefront
from repro.faults.demos import FAULT_DEMOS, run_demo
from repro.models import tbb
from repro.runtime.base import ExecContext, ThreadExplosionError
from repro.runtime.run import execute_region, run_program
from repro.sim.costs import CostModel
from repro.sim.task import IterSpace, Program

CTX = ExecContext()
THREADS = (1, 4)
FACTOR = 4.0

#: Fields no run reaches, with the reason each is kept.
UNREACHED = {
    "pipeline_token": "folded into stage work when tbb.pipeline_graph builds the graph",
    "tbb_split": "read by nothing; deleting a field moves every sweep cache key",
    "lock_acquire": "read by nothing; deleting a field moves every sweep cache key",
}

#: ``tbb.parallel_for`` and ``tbb.parallel_reduce`` over one space; only
#: the reduce charges ``tbb_join``.
TBB_SPACE = IterSpace.uniform(20_000, 5e-9, 16.0)


def _tbb_reduce():
    return tbb.parallel_reduce(TBB_SPACE, partitioner="simple", grainsize=64)


def _programs():
    """``(label, program)`` for every program the test runs at each p."""
    for name, spec in WORKLOADS.items():
        params = dict(spec.validation_params or spec.default_params)
        for version in spec.versions:
            yield f"{name}/{version}", spec.build(version, CTX.machine, **params)
    for version in ("omp_task", "cilk_spawn", "tbb_task"):
        yield f"uts/{version}", uts.program(version, machine=CTX.machine, max_nodes=5000)
    for version in ("omp_depend", "cxx_future"):
        yield f"wavefront/{version}", wavefront.program(version, machine=CTX.machine, nb=12)
    yield "tbb_pipeline", Program("tbb-pipeline").add(
        tbb.pipeline([2e-6, 5e-6, 1e-6], [True, False, True], 50))
    yield "tbb_for_reduce", Program("tbb-for-reduce").add(
        tbb.parallel_for(TBB_SPACE, partitioner="simple", grainsize=64)).add(_tbb_reduce())


@functools.lru_cache(maxsize=1)
def _runs():
    """``(label, run(ctx))`` for every run, programs built once."""
    runs = []
    for label, program in _programs():
        for p in THREADS:
            runs.append((f"{label}/p{p}", functools.partial(_program_time, program, p)))
    for name in sorted(FAULT_DEMOS):
        runs.append((f"demo/{name}", functools.partial(_demo_time, name)))
    return tuple(runs)


def _program_time(program, p, ctx):
    try:
        return run_program(program, p, ctx).time
    except ThreadExplosionError as err:
        return str(err)


def _demo_time(name, ctx):
    return run_demo(name, 4, ctx).time


@functools.lru_cache(maxsize=1)
def _base():
    return tuple(run(CTX) for _, run in _runs())


def _first_moved(field: str):
    """Label of the first run that ``field`` x4 moves, or ``None``."""
    scaled = CTX.with_costs(**{field: getattr(CTX.costs, field) * FACTOR})
    for (label, run), base in zip(_runs(), _base()):
        if run(scaled) != base:
            return label
    return None


@pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(CostModel)])
def test_every_cost_reaches_a_run(field):
    moved = _first_moved(field)
    if field in UNREACHED:
        assert moved is None, f"{field} now moves {moved}: drop it from UNREACHED"
    else:
        assert moved is not None, f"scaling {field} x{FACTOR} moves no run"


@pytest.mark.parametrize("field, run", [
    ("atomic_op", lambda ctx: run_program(
        WORKLOADS["sum"].build("omp_task", ctx.machine, **WORKLOADS["sum"].validation_params),
        4, ctx).time),
    ("tbb_spawn", lambda ctx: run_program(
        uts.program("tbb_task", machine=ctx.machine, max_nodes=5000), 8, ctx).time),
    ("tbb_join", lambda ctx: execute_region(_tbb_reduce(), 4, ctx).time),
], ids=["sum-omp_task-atomic_op", "uts-tbb_task-tbb_spawn", "tbb_reduce-tbb_join"])
def test_front_end_cost_is_read_at_run_time(field, run):
    """Each cost a model front-end names is read from ``ctx.costs`` when
    the region runs, so scaling it moves the region it is charged in."""
    scaled = CTX.with_costs(**{field: getattr(CTX.costs, field) * FACTOR})
    assert run(scaled) > run(CTX)
