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

Every executor builds the document with :func:`fault_doc`.  The one
fold over them is :func:`repro.obs.metrics.result_metrics` (its fault
counters and gauges); :func:`fault_summary` renames those into the
program-level document the CLI prints and writes to ``--metrics-out``.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional

from repro.obs.metrics import result_metrics

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


#: ``fault_summary`` field -> :func:`~repro.obs.metrics.result_metrics`
#: gauge (seconds) or counter of the same fold.
_SUMMARY_GAUGES = {
    "useful_seconds": "useful_work_seconds",
    "wasted_seconds": "wasted_work_seconds",
    "recovery_seconds": "recovery_seconds",
}
_SUMMARY_COUNTERS = {
    "faults_injected": "faults_injected",
    "failed_regions": "region_failures",
    "cancelled_regions": "regions_cancelled",
    "retries": "retries",
    "skipped_items": "skipped_items",
}


def fault_summary(result: Any) -> dict[str, Any]:
    """Aggregate useful/wasted/recovery accounting over a SimResult.

    A renaming of the fault counters and gauges that
    :func:`~repro.obs.metrics.result_metrics` folds from the regions'
    ``meta["fault"]`` documents: regions without one count their whole
    busy time as useful (nothing was injected there), and a counter or
    gauge no region touched reads 0.
    """
    m = result_metrics(result)
    gauges = {name: g.value for name, g in m.gauges.items()}
    counters = {name: c.value for name, c in m.counters.items()}
    return {
        **{key: gauges.get(name, 0.0) for key, name in _SUMMARY_GAUGES.items()},
        **{key: counters.get(name, 0) for key, name in _SUMMARY_COUNTERS.items()},
    }
