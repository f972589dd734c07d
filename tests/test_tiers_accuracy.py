"""Tier-0 accuracy battery: analytic estimates vs the tier-2 reference.

The tier-0 estimator's contract is not "close" but *bounded*: every
estimate carries a calibrated relative error bound, and the tier-2
reference time must land inside it — across the entire workload
registry (every kernel × runtime × schedule the paper compares), at
serial and parallel thread counts.  A second battery covers the three
OpenMP worksharing schedules directly (the registry's validation
parameters exercise only ``static``), and a third pins the calibration
machinery itself: refining the calibration partition must tighten the
worst-case bound monotonically.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.core.registry import WORKLOADS
from repro.models.openmp import parallel_for
from repro.runtime.base import ExecContext, ThreadExplosionError
from repro.runtime.run import execute_region, run_program
from repro.sim.task import IterSpace, LoopRegion, Program
from repro.sim.tiers import (
    DEFAULT_CALIBRATION,
    TIER_ANALYTIC,
    Calibration,
    Tier0Result,
    calibrate,
    estimate_program,
    estimate_region,
)

CTX = ExecContext()

REGISTRY_CELLS = [
    (name, version, p)
    for name in sorted(WORKLOADS)
    for version in WORKLOADS[name].versions
    for p in (1, 4)
]


def _build(name: str, version: str) -> Program:
    spec = WORKLOADS[name]
    params = dict(spec.validation_params or spec.default_params)
    return spec.build(version, CTX.machine, **params)


# ---------------------------------------------------------------------------
# the registry-wide bound battery
# ---------------------------------------------------------------------------
@pytest.mark.parametrize(
    "name,version,p", REGISTRY_CELLS, ids=[f"{n}-{v}-p{p}" for n, v, p in REGISTRY_CELLS]
)
def test_registry_estimate_within_declared_bound(name, version, p):
    """Every kernel × runtime × schedule: |t2 - t0| <= t0 * bound."""
    try:
        ref = run_program(_build(name, version), p, CTX, version)
    except ThreadExplosionError:
        with pytest.raises(ThreadExplosionError):
            estimate_program(_build(name, version), p, CTX, version)
        return
    est = estimate_program(_build(name, version), p, CTX, version)
    assert isinstance(est, Tier0Result)
    assert est.time > 0.0
    if est.error_bound == 0.0:
        # fully delegated program: the estimate IS the reference result
        assert est.time == pytest.approx(ref.time, rel=1e-9)
    else:
        rel = abs(ref.time - est.time) / est.time
        assert rel <= est.error_bound, (
            f"{name}/{version} p={p}: relative error {rel:.4f} "
            f"outside declared bound {est.error_bound:.4f}"
        )


def test_registry_estimates_at_high_thread_count():
    """p=16 (the contended regime the steal estimators model) stays
    within bounds for every workload's first and last version."""
    for name in sorted(WORKLOADS):
        spec = WORKLOADS[name]
        for version in {spec.versions[0], spec.versions[-1]}:
            try:
                ref = run_program(_build(name, version), 16, CTX, version)
            except ThreadExplosionError:
                continue
            est = estimate_program(_build(name, version), 16, CTX, version)
            if est.error_bound > 0.0:
                rel = abs(ref.time - est.time) / est.time
                assert rel <= est.error_bound, f"{name}/{version} p=16: {rel:.4f}"


# ---------------------------------------------------------------------------
# tier 0 models the decomposition tier 2 runs
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("p", [1, 3, 16])
@pytest.mark.parametrize("style", ["cilk_for", "flat"])
def test_stealing_loop_task_count_matches_the_runtime(style, p):
    """Over a grid of stealing-loop shapes, tier 0 counts exactly the
    tasks ``execute_region`` runs (spaces with fewer iterations than
    chunks or grains included)."""
    spaces = (
        IterSpace.uniform(37, 1e-7, 8.0, name="u37"),
        IterSpace.from_profile(np.linspace(1e-8, 9e-8, 4), np.full(4, 64.0), name="s4"),
    )
    grid = itertools.product(
        spaces, (None, 1, 7), (None, 5), (1, 3), (False, True), (True, False)
    )
    for space, grainsize, nchunks, chunks_per_thread, reducer, penalty in grid:
        params = {
            "style": style, "grainsize": grainsize, "nchunks": nchunks,
            "chunks_per_thread": chunks_per_thread, "reducer": reducer,
            "apply_scatter_penalty": penalty,
        }
        region = LoopRegion(space, "stealing_loop", params)
        _, est = estimate_region(region, p, CTX)
        ref = execute_region(region, p, CTX)
        assert est.total_tasks == ref.total_tasks, (space.name, params)


# ---------------------------------------------------------------------------
# direct schedule coverage (static / dynamic / guided)
# ---------------------------------------------------------------------------
def _skewed_space() -> IterSpace:
    work = np.linspace(4e-9, 150e-9, 3000)
    return IterSpace.from_profile(work, np.full(3000, 16.0), name="skewed")


@pytest.mark.parametrize("schedule", ["dynamic", "guided"])
@pytest.mark.parametrize("p", [1, 4, 16])
def test_worksharing_schedule_estimates(schedule, p):
    prog = Program(f"ws-{schedule}")
    prog.add(parallel_for(_skewed_space(), schedule=schedule))
    prog.add(parallel_for(IterSpace.uniform(4096, 25e-9, 64.0), schedule=schedule, chunk=8))
    ref = run_program(prog, p, CTX)
    est = estimate_program(prog, p, CTX)
    assert est.error_bound > 0.0  # modelled, not delegated
    rel = abs(ref.time - est.time) / est.time
    assert rel <= est.error_bound
    for region in est.regions:
        assert region.meta["tier"] == TIER_ANALYTIC
        assert region.meta["estimator"] == f"ws_{schedule}"


def test_static_schedule_is_delegated_exact():
    prog = Program("ws-static")
    prog.add(parallel_for(_skewed_space(), schedule="static"))
    ref = run_program(prog, 4, CTX)
    est = estimate_program(prog, 4, CTX)
    assert est.error_bound == 0.0
    assert est.time == pytest.approx(ref.time, rel=1e-12)
    assert est.regions[0].meta["estimator"] == "exact"


# ---------------------------------------------------------------------------
# calibration machinery
# ---------------------------------------------------------------------------
def test_calibration_is_keyed_by_estimator_kind():
    cal = calibrate(threads=(1, 4), workloads=("axpy", "sum", "fib", "bfs"))
    assert cal.scales and set(cal.scales) == set(cal.bounds)
    assert all("/" not in k and k != "*" for k in cal.scales)
    assert cal.fallback_bound == max(cal.bounds.values()) > 0.0


def test_calibration_lookup_fallback():
    cal = Calibration(scales={"steal_flat": 1.5}, bounds={"steal_flat": 0.2})
    assert cal.scale("steal_flat") == 1.5
    assert cal.bound("steal_flat") == 0.2
    bare = Calibration(scales={}, bounds={})
    assert bare.scale("anything") == 1.0
    assert bare.bound("anything") == 0.5


def test_shipped_calibration_covers_every_modelled_kind():
    """Every estimator kind the registry + schedules can produce must
    have a fitted (non-fallback) entry in the shipped calibration."""
    kinds = set()
    for name in sorted(WORKLOADS):
        spec = WORKLOADS[name]
        for version in spec.versions:
            try:
                prog = _build(name, version)
            except Exception:  # pragma: no cover - registry always builds
                continue
            try:
                for region in prog:
                    kind, _ = estimate_region(region, 2, CTX)
                    kinds.add(kind)
            except ThreadExplosionError:
                continue
    kinds.discard("exact")
    kinds.update({"ws_dynamic", "ws_guided"})
    assert kinds  # the registry exercises the modelled estimators
    for kind in kinds:
        assert kind in DEFAULT_CALIBRATION.scales, kind
        assert kind in DEFAULT_CALIBRATION.bounds, kind
        assert 0.0 < DEFAULT_CALIBRATION.bounds[kind] < 1.0


def test_program_bound_is_time_weighted(monkeypatch):
    prog = Program("mix")
    prog.add(parallel_for(_skewed_space(), schedule="dynamic"))
    prog.add(parallel_for(IterSpace.uniform(2048, 20e-9), schedule="static"))
    est = estimate_program(prog, 4, CTX)
    bounds = [r.meta["error_bound"] for r in est.regions]
    times = [r.time for r in est.regions]
    expected = sum(b * t for b, t in zip(bounds, times)) / sum(times)
    assert est.error_bound == pytest.approx(expected)
    assert bounds[1] == 0.0  # static region delegated exact


def test_estimate_rejects_bad_nthreads():
    prog = Program("x")
    prog.add(parallel_for(IterSpace.uniform(64, 1e-8)))
    with pytest.raises(ValueError):
        estimate_program(prog, 0, CTX)
