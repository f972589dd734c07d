"""Pause Python's cyclic garbage collector while a program simulates.

A simulated cell builds task graphs of about three GC-tracked objects
per task (the :class:`~repro.sim.task.Task`, its ``deps`` tuple and its
successor list) and drops them all when the cell ends.  None of them
is part of a reference cycle, so reference counting frees every one;
the cyclic collector only re-walks them, and its full (generation-2)
passes over a growing 86k-task Fibonacci graph can cost as much as
building it.  :data:`paused_gc` holds automatic collections off for
the duration of :func:`~repro.runtime.run.run_program` and
:func:`~repro.sim.tiers.estimate_program`.

The pause is counted across threads: the first caller to enter
disables the collector and the last to leave restores the state the
first one found, so a caller that disabled the collector itself keeps
it disabled, and overlapping simulations on several threads leave it
enabled once all of them finish.  A forked child starts unpaused.

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
            if _depth == 0 and _was_enabled:
                gc.enable()
        return False


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
