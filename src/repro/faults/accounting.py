"""Graceful-degradation accounting over fault-injected results.

Each region attempt executed under a fault plan carries a plain-JSON
``meta["fault"]`` document (written by the executors and by
:func:`repro.runtime.run.run_program`):

``kind``                fault kind that fired ("" when none did)
``error``               injected error message ("" when none)
``mode``                error-handling mode the region ran under
``time``                simulated time at which the failure fired
``failed``              True when the attempt counts as failed
``cancelled``           True when issuing stopped early (cancel/poison/
                        async_cancel)
``cancel_time``         simulated time issuing stopped
``useful``              busy seconds that count as useful work
``wasted``              busy seconds wasted by the failure
``recovery``            backoff seconds charged before the next retry
``issued_after_cancel`` work items issued after the cancellation point
                        (must be 0 — checked by the invariant layer)
``skipped``             work items never issued because of cancellation
``attempt``             0-based attempt index under a retry policy
``triggered``           list of ``[kind, time]`` pairs that fired

Every executor builds the document with :func:`fault_doc`;
:func:`fault_summary` folds these into one program-level document used
by the CLI, the metrics layer, and CI smoke assertions.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional

__all__ = ["fault_doc", "fault_summary"]


def fault_doc(
    triggered: Iterable[tuple[str, float]],
    err: Optional[str],
    err_time: float,
    mode: str,
    busy: float,
    *,
    cancelled: bool = False,
    cancel_time: float = 0.0,
    issued_after_cancel: int = 0,
    skipped: int = 0,
) -> dict[str, Any]:
    """The ``meta["fault"]`` document of one region attempt.

    ``triggered`` is the live fault set's ``(kind, time)`` list (empty
    when nothing was injected), ``err`` the injected failure message or
    ``None``, ``err_time`` when it fired and ``busy`` the attempt's total
    busy seconds: all useful without a failure, all wasted with one.
    """
    triggered = [[k, t] for k, t in triggered]
    return {
        "kind": "task_fail" if err is not None else (triggered[0][0] if triggered else ""),
        "error": err or "",
        "mode": mode,
        "time": err_time if err is not None else 0.0,
        "failed": err is not None and mode != "none",
        "cancelled": cancelled,
        "cancel_time": cancel_time if cancelled else 0.0,
        "issued_after_cancel": issued_after_cancel,
        "skipped": skipped,
        "useful": 0.0 if err is not None else busy,
        "wasted": busy if err is not None else 0.0,
        "triggered": triggered,
    }


def fault_summary(result: Any) -> dict[str, Any]:
    """Aggregate useful/wasted/recovery accounting over a SimResult.

    Regions without a ``fault`` meta entry count their whole busy time
    as useful (nothing was injected there).
    """
    useful = wasted = recovery = 0.0
    faults_injected = 0
    failed_regions = 0
    cancelled_regions = 0
    retries = 0
    skipped = 0
    for region in result.regions:
        fault = region.meta.get("fault")
        if not fault:
            useful += region.total_busy
            continue
        useful += float(fault.get("useful", 0.0))
        wasted += float(fault.get("wasted", 0.0))
        recovery += float(fault.get("recovery", 0.0))
        faults_injected += len(fault.get("triggered", ()))
        if fault.get("failed"):
            failed_regions += 1
        if fault.get("cancelled"):
            cancelled_regions += 1
        if fault.get("recovery", 0.0) > 0.0:
            retries += 1  # a backoff was charged: this attempt was retried
        skipped += int(fault.get("skipped", 0))
    return {
        "useful_seconds": useful,
        "wasted_seconds": wasted,
        "recovery_seconds": recovery,
        "faults_injected": faults_injected,
        "failed_regions": failed_regions,
        "cancelled_regions": cancelled_regions,
        "retries": retries,
        "skipped_items": skipped,
    }
