"""Lock resources for the simulated runtimes.

The discrete-event loop itself lives in the one scheduler that needs
it, :class:`~repro.runtime.workstealing.StealingScheduler`: a binary heap
of ``(time, seq, worker, kind)`` entries with a monotonically advancing
clock, where the insertion sequence number breaks time ties so two runs
of the same workload produce identical schedules.

:class:`SimLock` models a mutual-exclusion resource (a deque lock, a
shared loop counter, a reducer) as a FIFO server: callers ask to hold the
lock for a duration starting no earlier than their current time and are
granted back-to-back slots.  This is how the simulation reproduces the
serialization effects the paper attributes to lock-based deques and to
work-stealing distribution of loop chunks.
"""

from __future__ import annotations

from typing import Any, Optional

__all__ = ["SimLock"]


class SimLock:
    """A FIFO mutual-exclusion resource with occupancy accounting.

    ``acquire(t, hold)`` returns the time at which the caller is granted
    the lock (>= ``t``); the lock is then busy until ``grant + hold``.
    Callers MUST invoke :meth:`acquire` in non-decreasing order of ``t``
    — true for event-driven callers (events fire in time order) and for
    the analytic worksharing dispatcher (chunks dispatched in time order).

    With a :class:`~repro.obs.tracer.Tracer` attached, every
    acquisition is emitted as a lock event ``(request, grant, hold)``
    keyed by the lock's name; the validation subsystem checks
    exclusivity (no two grant windows overlap) and causality (no grant
    before its request) on that log, and the Chrome-trace exporter
    renders it as a per-lock track.
    """

    __slots__ = ("name", "busy_until", "acquisitions", "wait_time", "hold_time", "tracer")

    def __init__(self, name: str = "lock", tracer: Optional[Any] = None) -> None:
        self.name = name
        self.busy_until: float = 0.0
        self.acquisitions: int = 0
        self.wait_time: float = 0.0
        self.hold_time: float = 0.0
        self.tracer: Optional[Any] = tracer

    def acquire(self, t: float, hold: float) -> float:
        """Request the lock at time ``t`` for ``hold`` seconds.

        Returns the grant time; the caller owns the lock during
        ``[grant, grant + hold)`` and should treat ``grant + hold`` as
        its own time afterwards (:meth:`acquire_release` returns it).
        """
        if hold < 0:
            raise ValueError("hold must be non-negative")
        grant = t if t >= self.busy_until else self.busy_until
        self.busy_until = grant + hold
        self.acquisitions += 1
        self.wait_time += grant - t
        self.hold_time += hold
        if self.tracer is not None:
            self.tracer.lock_event(self.name, t, grant, hold)
        return grant

    def acquire_release(self, t: float, hold: float) -> float:
        """Acquire at ``t`` for ``hold`` and return the release time."""
        return self.acquire(t, hold) + hold

    @property
    def contended_fraction(self) -> float:
        """Fraction of lock time spent waiting rather than holding."""
        total = self.wait_time + self.hold_time
        return self.wait_time / total if total > 0 else 0.0
