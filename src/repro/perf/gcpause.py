"""Pause Python's cyclic garbage collector while a program simulates.

A simulated cell creates hundreds of thousands of short-lived
GC-tracked containers (event-heap entries, the AMT walk's per-task
records, trace spans) and drops them all when the cell ends.  None of
them is part of a reference cycle, so reference counting frees every
one; the cyclic collector only re-walks them, and its full
(generation-2) passes over them can cost as much as the simulation.
A :class:`~repro.sim.task.TaskGraph` adds only its column lists: the
floats and ints inside them are not tracked.  :data:`paused_gc` holds
automatic collections off for the duration of
:func:`~repro.runtime.run.run_program` and
:func:`~repro.sim.tiers.estimate_program`.

The pause is counted across threads: the first caller to enter
disables the collector and the last to leave restores the state the
first one found, so a caller that disabled the collector itself keeps
it disabled, and overlapping simulations on several threads leave it
enabled once all of them finish.  A forked child starts unpaused.
When the last pause ends, a young collection the pause held back runs
at once, so its host time lands inside the paused run's span rather
than in whatever the caller does next.

Because cycles are left for later while a simulation runs, executors
and graph builders must not create them: a cycle through a graph (a
scheduler storing one of its own bound methods, a recursive closure
capturing the graph it fills) keeps the whole graph alive until the
pause ends.
"""

from __future__ import annotations

import gc
import os
import threading
from contextlib import ContextDecorator

__all__ = ["paused_gc"]

# module state because the collector it guards is process-wide
_lock = threading.Lock()
_depth = 0
_was_enabled = False


class _PausedGC(ContextDecorator):
    """Context manager and decorator; see the module docstring."""

    def __enter__(self) -> "_PausedGC":
        global _depth, _was_enabled
        with _lock:
            if _depth == 0:
                _was_enabled = gc.isenabled()
                gc.disable()
            _depth += 1
        return self

    def __exit__(self, *exc) -> bool:
        global _depth
        with _lock:
            _depth -= 1
            resumed = _depth == 0 and _was_enabled
            if resumed:
                gc.enable()
        if resumed:
            _run_held_back_collection()
        return False


def _run_held_back_collection() -> None:
    """Run the young collection the pause held back, now rather than at
    the caller's next allocation.

    Objects a paused run leaves alive (its results) still count toward
    the collector's thresholds, so the first allocation after the pause
    would trigger the collection the run made due — wherever that lands
    in the caller.  Running it here charges it to the paused run's own
    host-time span.  The generation is the one the automatic trigger
    would pick; when a full collection may be due, the decision (which
    needs collector state Python cannot read) is left to the trigger.
    """
    count0, count1, count2 = gc.get_count()
    limit0, limit1, limit2 = gc.get_threshold()
    if limit0 and count0 > limit0 and count2 <= limit2:
        gc.collect(1 if count1 > limit1 else 0)


paused_gc = _PausedGC()


def _after_fork_in_child() -> None:
    # only the forking thread survives a fork: pauses held by the
    # parent's other threads end here, and the lock may have been held
    global _lock, _depth
    _lock = threading.Lock()
    if _depth:
        _depth = 0
        if _was_enabled:
            gc.enable()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_after_fork_in_child)
