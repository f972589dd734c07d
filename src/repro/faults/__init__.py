"""Deterministic fault injection and per-model error-handling semantics.

The paper's Table III records each model's error handling as a static
cell ("C++ exception", "omp cancel", "pthread_cancel", "cancellation
and exception", or nothing at all).  This package makes those cells
*executable*: a :class:`FaultPlan` describes seed-independent,
simulated-time-deterministic faults (task failures, worker stalls,
lock-holder delays, transient bandwidth degradation), and every
runtime executor implements the error-handling discipline of the
models it simulates:

- ``cancel`` — OpenMP ``omp cancel``: chunks already dispatched drain,
  no new chunk issues past the cancellation point (worksharing);
- ``poison`` — Cilk/TBB exception propagation with implicit-sync
  abort: the spawn tree is poisoned, in-flight tasks (and steals)
  finish, nothing new is popped or made ready (work stealing);
- ``rethrow`` — C++11 futures: every chunk runs to completion, the
  master rethrows the stored exception at the join/get (thread pool);
- ``async_cancel`` — ``pthread_cancel``: running threads are
  terminated asynchronously at the failure time, not-yet-created
  threads never start (thread pool);
- ``none`` — models whose Table III entry is "No" (CUDA, OpenACC,
  Cilk data parallelism): the fault is undetected, the region runs to
  completion and every busy second is reported as wasted work.

Accounting is uniform: any region attempt hit by a failure reports
``useful = 0`` and ``wasted = total busy seconds`` in
``meta["fault"]``; the modes differ in *how much* busy time
accumulates after the failure and in whether the error propagates
(and can therefore be retried by a region-level
:class:`~repro.faults.policy.Policy`).
"""

from __future__ import annotations

from repro.faults.accounting import fault_doc, fault_summary
from repro.faults.plan import FAULT_KINDS, Fault, FaultPlan, RegionFaults
from repro.faults.policy import Policy, RegionFailedError
from repro.faults.semantics import ERROR_MODES, error_mode

__all__ = [
    "ERROR_MODES",
    "FAULT_KINDS",
    "Fault",
    "FaultPlan",
    "Policy",
    "RegionFailedError",
    "RegionFaults",
    "error_mode",
    "fault_doc",
    "fault_summary",
]
