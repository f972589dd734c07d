"""Tier audit: does the tier-0 estimate keep its contract?

Checked over the registry against the tier-2 simulation
(:mod:`repro.sim.tiers`):

- **tier0-bound** — the closed-form tier-0 estimate must bracket the
  tier-2 reference time within its own calibrated ``error_bound``:
  ``|t2 - t0| <= t0 * error_bound``.  Estimates that fall outside their
  declared bound are worse than slow — they are *misleading*, and the
  sweep layer advertises them as trustworthy.
- **tier-explosion-parity** — thread-per-task versions that explode
  past the thread cap in the simulation must explode in the estimate
  too: an estimate that silently returns a time for the paper's
  hanging C++11 fib would invert a headline finding.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.validate.invariants import ValidationReport

__all__ = ["run_tier_audit"]


def run_tier_audit(
    threads: Iterable[int] = (1, 4),
    workloads: Optional[Iterable[str]] = None,
    calibration=None,
    report: Optional[ValidationReport] = None,
) -> ValidationReport:
    """Audit tier-0 accuracy over the registry.

    Every registered workload × version × thread count (at validation
    parameters) is built once, run at tier 2 and estimated at tier 0;
    ``calibration`` defaults to the shipped
    :data:`~repro.sim.tiers.DEFAULT_CALIBRATION`.
    """
    from repro.core.registry import WORKLOADS
    from repro.runtime.base import ExecContext, ThreadExplosionError
    from repro.runtime.run import run_program
    from repro.sim.tiers import estimate_program

    rep = report if report is not None else ValidationReport()
    ctx2 = ExecContext()
    names = sorted(WORKLOADS)
    if workloads is not None:
        wanted = set(workloads)
        names = [n for n in names if n in wanted]
    for name in names:
        spec = WORKLOADS[name]
        params = dict(spec.validation_params or spec.default_params)
        for version in spec.versions:
            for p in threads:
                where = f"{name}/{version} p={p}"
                program = spec.build(version, ctx2.machine, **params)
                try:
                    ref = run_program(program, p, ctx2, version)
                except ThreadExplosionError:
                    # the estimate must refuse identically
                    try:
                        estimate_program(program, p, ctx2, version, calibration=calibration)
                    except ThreadExplosionError:
                        rep.check(True, "tier-explosion-parity", where)
                    else:
                        rep.check(
                            False, "tier-explosion-parity", where,
                            "tier0 did not raise ThreadExplosionError",
                        )
                    continue
                # tier 0: reference time within the declared error bound
                est = estimate_program(program, p, ctx2, version, calibration=calibration)
                if est.time > 0.0 and est.error_bound > 0.0:
                    rel = abs(ref.time - est.time) / est.time
                    rep.check(
                        rel <= est.error_bound,
                        "tier0-bound", where,
                        f"relative error {rel:.4f} exceeds bound {est.error_bound:.4f}",
                    )
                else:
                    # delegated-exact programs: the estimate IS the result
                    rep.check(
                        abs(ref.time - est.time) <= 1e-12 + 1e-9 * abs(ref.time),
                        "tier0-bound", where,
                        f"exact estimate {est.time!r} != reference {ref.time!r}",
                    )
    return rep
