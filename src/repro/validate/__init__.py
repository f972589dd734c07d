"""Simulation validation subsystem.

The paper's findings are only as credible as the discrete-event
simulator that reproduces them, so this package provides three
independent layers of correctness tooling:

- :mod:`repro.validate.invariants` — a checker that audits any
  :class:`~repro.sim.trace.SimResult` / :class:`~repro.sim.trace.RegionResult`
  for physical plausibility: no overlapping busy intervals per worker,
  monotonic event times, work conservation within the cost model's
  envelope, lock-hold exclusivity on :class:`~repro.sim.engine.SimLock`
  grant logs, and makespan at or above its greedy / critical-path lower
  bounds;
- :mod:`repro.validate.differential` — an oracle that runs shared
  workloads through every runtime (worksharing, work stealing,
  thread pool) and schedule combination and cross-checks determinism,
  useful-work equality, and speedup ordering;
- :mod:`repro.validate.properties` — a seeded random-program harness
  (no extra dependencies) generating nested loop/task/serial programs
  and checking every invariant under every executor;
- :mod:`repro.validate.faultcheck` — a differential oracle over the
  Table III error-handling demos (:mod:`repro.faults.demos`): every
  row's declared semantics (cancel / poison / rethrow / async-cancel /
  none) is executed under deterministic fault injection and checked
  for determinism, declared behaviour, and the fault-aware invariants;
- :mod:`repro.validate.tiers` — the fidelity-tier audit: tier-0
  analytic estimates within their calibrated error bounds of the
  tier-2 simulation, across the whole registry;
- :mod:`repro.validate.synth` — the synthesized-workload audit:
  seeded apps from :mod:`repro.workloads.synth` are re-synthesized
  (spec stability), run twice per cell (determinism), invariant-checked
  and speedup-ordered across the full version matrix.

``repro validate [--deep] [--inject SPEC]`` runs all of them;
``run_program(..., validate=True)`` runs the cheap invariant pass on a
single result (the benchmark suite does this for every result it
produces).
"""

from __future__ import annotations

from typing import Optional

from repro.validate.differential import run_differential_matrix, run_registry_audit
from repro.validate.faultcheck import run_fault_audit, run_fault_matrix
from repro.validate.invariants import (
    SimulationInvariantError,
    ValidationReport,
    Violation,
    check_event_times,
    check_intervals,
    check_lock_log,
    check_region,
    check_result,
)
from repro.validate.properties import random_program, run_property_suite
from repro.validate.synth import run_synth_audit
from repro.validate.tiers import run_tier_audit

__all__ = [
    "SimulationInvariantError",
    "ValidationReport",
    "Violation",
    "check_event_times",
    "check_intervals",
    "check_lock_log",
    "check_region",
    "check_result",
    "random_program",
    "run_differential_matrix",
    "run_fault_audit",
    "run_fault_matrix",
    "run_property_suite",
    "run_registry_audit",
    "run_synth_audit",
    "run_tier_audit",
    "run_validation",
]


def run_validation(
    *,
    deep: bool = False,
    seed: int = 0,
    programs: Optional[int] = None,
    inject: Optional[str] = None,
    models: Optional[list[str]] = None,
) -> ValidationReport:
    """Run the whole validation battery and return the merged report.

    The default (cheap) pass audits every registry workload at two
    thread counts, runs the differential runtime matrix, and exercises a
    modest random-program suite — a few seconds of work, suitable for
    CI.  ``deep=True`` widens the thread sweep into the SMT regime and
    multiplies the random-program count.

    ``inject`` is an optional fault spec (see
    :meth:`repro.faults.FaultPlan.parse`) pushed through every registry
    workload on top of the standard battery; an unparsable spec raises
    :class:`ValueError` before any simulation runs.

    ``models`` optionally restricts the per-version batteries (registry
    audit and fault audit) to the named model families or registry
    versions (``openmp``, ``charm++``, ``omp_task``, ...); an unknown
    name raises :class:`ValueError` before any simulation runs — the
    CLI maps that to a usage error (exit 2).  The model-independent
    batteries (differential, properties, tiers, synth) always run.
    """
    versions = None
    if models is not None:
        from repro.models import resolve_models

        versions = resolve_models(models)  # fail fast: bad names are usage errors
    if inject is not None:
        from repro.faults.plan import FaultPlan

        FaultPlan.parse(inject)  # fail fast: bad specs are usage errors
    # per-phase host-cost spans (repro.perf): `repro perf report` can
    # say which battery dominates a validation run's wall time
    from repro.perf.spans import span as perf_span

    report = ValidationReport()
    with perf_span("validate.registry_audit"):
        run_registry_audit(
            threads=(1, 4, 16, 36) if deep else (1, 4),
            versions=versions,
            report=report,
        )
    with perf_span("validate.differential"):
        run_differential_matrix(
            threads=(1, 2, 4, 8, 16, 32) if deep else (1, 2, 4, 8),
            report=report,
        )
    nprog = programs if programs is not None else (100 if deep else 20)
    with perf_span("validate.properties"):
        run_property_suite(seed=seed, programs=nprog, report=report)
    with perf_span("validate.faults"):
        run_fault_matrix(threads=(1, 4, 16) if deep else (1, 4), report=report)
    with perf_span("validate.tiers"):
        run_tier_audit(threads=(1, 4, 16) if deep else (1, 4), report=report)
    with perf_span("validate.synth"):
        run_synth_audit(
            seed=seed,
            count=5 if deep else 3,
            threads=(1, 4, 16) if deep else (1, 4),
            report=report,
        )
    if inject is not None:
        with perf_span("validate.inject"):
            run_fault_audit(inject, threads=(1, 4), versions=versions, report=report)
    return report
