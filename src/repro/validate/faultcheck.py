"""Differential oracle for error-handling semantics (Table III).

Every :class:`~repro.faults.demos.FaultDemo` — one per threading model
row of Table III — is executed at several thread counts and held to:

- **determinism** — a fault-injected run is still a simulation: two
  runs of the same configuration must be bit-identical;
- **declared semantics** — the observed ``meta["fault"]`` document must
  match the row's expectations (failed / cancelled / skipped items /
  wasted work), i.e. ``omp cancel`` really cancels, a poisoned TBB
  scheduler really stops issuing, and the "x" rows really run to
  completion with non-zero wasted work;
- **structural invariants** — every faulted region still passes
  :func:`~repro.validate.invariants.check_region` (fault-aware: the
  accounting must balance, cancelled regions must not issue work after
  the cancellation point).

:func:`run_fault_audit` additionally pushes a caller-supplied
``--inject`` spec through every registry workload under a
continue-on-failure policy, checking the resulting programs end to end
(retry idempotency included).
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.faults.demos import FAULT_DEMOS
from repro.runtime.base import ExecContext, ThreadExplosionError
from repro.validate.invariants import (
    ValidationReport,
    check_region,
    check_result,
    stats_snapshot,
)

__all__ = ["run_fault_matrix", "run_fault_audit"]


def run_fault_matrix(
    ctx: Optional[ExecContext] = None,
    *,
    threads: Sequence[int] = (1, 4),
    report: Optional[ValidationReport] = None,
) -> ValidationReport:
    """Run every Table III error-handling demo and check its semantics."""
    ctx = ctx or ExecContext()
    rep = report if report is not None else ValidationReport()
    for name, demo in sorted(FAULT_DEMOS.items()):
        for p in threads:
            where = f"fault[{name}] p={p}"
            r1 = demo.run(p, ctx)
            r2 = demo.run(p, ctx)
            rep.check(
                stats_snapshot(r1) == stats_snapshot(r2),
                "fault-determinism",
                where,
                f"repeated fault-injected runs disagree: {r1.time!r} vs {r2.time!r}",
            )
            check_region(r1, ctx=ctx, report=rep, where=where)
            fault = (r1.meta or {}).get("fault")
            if not rep.check(
                fault is not None, "fault-doc-present", where,
                "faulted run recorded no meta['fault'] document",
            ):
                continue
            rep.check(fault.get("mode") == demo.mode, "fault-mode", where,
                      f"ran under mode {fault.get('mode')!r}, demo declares {demo.mode!r}")
            rep.check(
                bool(fault.get("failed")) == demo.expect_failed,
                "fault-semantics-failed", where,
                f"failed={fault.get('failed')} but {demo.construct!r} "
                f"implies failed={demo.expect_failed}",
            )
            rep.check(
                bool(fault.get("cancelled")) == demo.expect_cancelled,
                "fault-semantics-cancelled", where,
                f"cancelled={fault.get('cancelled')} but {demo.construct!r} "
                f"implies cancelled={demo.expect_cancelled}",
            )
            skipped = int(fault.get("skipped", 0))
            if demo.expect_skipped:
                # cancellation must actually spare work once there is
                # enough of it in flight (p >= 2 for the graph demos)
                if p >= 2:
                    rep.check(skipped > 0, "fault-semantics-skipped", where,
                              f"{demo.construct!r} cancelled but skipped no work")
            else:
                rep.check(skipped == 0, "fault-semantics-skipped", where,
                          f"non-cancelling mode skipped {skipped} items")
            if demo.expect_wasted:
                rep.check(float(fault.get("wasted", 0.0)) > 0.0,
                          "fault-semantics-wasted", where,
                          "failure fired but no busy seconds were written off")
            rep.check(len(fault.get("triggered", ())) > 0, "fault-triggered", where,
                      "demo plan injected nothing")
    return rep


def run_fault_audit(
    spec: str,
    ctx: Optional[ExecContext] = None,
    *,
    threads: Sequence[int] = (1, 4),
    versions: Optional[Sequence[str]] = None,
    report: Optional[ValidationReport] = None,
) -> ValidationReport:
    """Inject ``spec`` into every registry workload and check the results.

    Raises :class:`ValueError` for an unparsable spec or unknown fault
    kind — the CLI maps that to a usage error (exit code 2).  Programs
    run under a one-retry continue-on-failure policy so every attempt,
    failed or not, lands in the result for the invariant layer (which
    includes the retry-idempotency check).  An explicit ``versions``
    sequence restricts the audit to those version names.
    """
    from repro.core.registry import WORKLOADS
    from repro.faults.plan import FaultPlan
    from repro.faults.policy import Policy
    from repro.runtime.run import run_program

    plan = FaultPlan.parse(spec)  # ValueError on unknown kind/key
    policy = Policy(max_retries=1, backoff=1e-6, on_failure="continue")
    ctx = ctx or ExecContext()
    rep = report if report is not None else ValidationReport()
    for name, wlspec in sorted(WORKLOADS.items()):
        params = dict(wlspec.validation_params or wlspec.default_params)
        for version in wlspec.versions:
            if versions is not None and version not in versions:
                continue
            for p in threads:
                try:
                    prog = wlspec.build(version, ctx.machine, **params)
                    res = run_program(prog, p, ctx, version, faults=plan, policy=policy)
                except ThreadExplosionError:
                    continue  # the paper's reproduced "system hangs"
                check_result(res, ctx=ctx, report=rep,
                             where=f"fault-audit[{name}/{version}] {spec!r} p={p}")
    return rep
