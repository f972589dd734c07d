"""Discrete-event engine: simulated clock, event queue, lock resources.

The engine is deliberately minimal: a binary heap of ``(time, seq,
callback)`` entries with a monotonically advancing clock.  Determinism is
guaranteed by the insertion sequence number used as a tie-breaker, so two
runs of the same workload produce identical schedules.

:class:`SimLock` models a mutual-exclusion resource (a deque lock, a
shared loop counter, a reducer) as a FIFO server: callers ask to hold the
lock for a duration starting no earlier than their current time and are
granted back-to-back slots.  This is how the simulation reproduces the
serialization effects the paper attributes to lock-based deques and to
work-stealing distribution of loop chunks.
"""

from __future__ import annotations

import heapq
from time import perf_counter, process_time
from typing import Any, Callable, Optional

from repro.perf.spans import current as _perf_current

__all__ = ["Engine", "SimLock"]


class Engine:
    """A deterministic discrete-event simulator clock and queue.

    ``tracer`` is the observability hook (:mod:`repro.obs`): when a
    :class:`~repro.obs.tracer.Tracer` is attached, :meth:`run` records
    one ``(time, seq)`` engine event per processed entry, so checkers
    can verify the clock advanced monotonically and ties were broken by
    insertion order.  The hook is off by default — it costs one branch
    per event when disabled.
    """

    __slots__ = ("now", "_heap", "_seq", "_events_processed", "tracer", "interrupted")

    def __init__(self, tracer: Optional[Any] = None) -> None:
        self.now: float = 0.0
        self._heap: list[tuple[float, int, Callable[[], None]]] = []
        self._seq: int = 0
        self._events_processed: int = 0
        self.tracer: Optional[Any] = tracer
        self.interrupted: Optional[str] = None

    def at(self, time: float, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` to run at absolute simulated ``time``.

        Scheduling in the past raises: it would break the monotonic clock.
        """
        if time < self.now:
            raise ValueError(f"cannot schedule at {time} before now={self.now}")
        self._seq += 1
        heapq.heappush(self._heap, (time, self._seq, callback))

    def after(self, delay: float, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` ``delay`` seconds after the current time."""
        if delay < 0:
            raise ValueError("delay must be non-negative")
        self.at(self.now + delay, callback)

    def interrupt(self, reason: str = "interrupt") -> None:
        """Stop :meth:`run` before its next event (fault/abort hook).

        The current callback finishes; queued events stay queued.  A
        scheduler that has decided no further event can do useful work
        (e.g. its spawn tree is poisoned and every worker is idle) calls
        this instead of letting the queue drain.
        """
        self.interrupted = reason

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Process events in time order until the queue drains.

        Parameters
        ----------
        until:
            Stop once the next event would be later than this time.
        max_events:
            Safety valve against runaway simulations; raises
            ``RuntimeError`` when exceeded.

        Returns the final clock value.  Stops early (without raising)
        when a callback invoked :meth:`interrupt`.

        Host telemetry: with a :mod:`repro.perf` recording active the
        drain's host wall/CPU cost lands in an ``engine.drain`` span
        and its event count in an ``engine.events`` counter — one
        predicate per :meth:`run` call, never per event, so the
        disabled path keeps the hot loop untouched.
        """
        rec = _perf_current()
        if rec is None:
            return self._drain(until, max_events)
        t0 = perf_counter()
        c0 = process_time()
        n0 = self._events_processed
        try:
            return self._drain(until, max_events)
        finally:
            rec.add_span("engine.drain", perf_counter() - t0, process_time() - c0)
            rec.count("engine.events", self._events_processed - n0)

    def _drain(self, until: Optional[float], max_events: Optional[int]) -> float:
        heap = self._heap
        tracer = self.tracer
        processed = 0
        self.interrupted = None
        if tracer is None and until is None:
            # Fast drain: same pop/clock/callback sequence with the
            # tracer/until branches hoisted out of the loop and the
            # peek-then-pop collapsed into a single pop.
            pop = heapq.heappop
            limit = float("inf") if max_events is None else max_events
            while heap and self.interrupted is None:
                time, _seq, callback = pop(heap)
                self.now = time
                callback()
                processed += 1
                if processed > limit:
                    raise RuntimeError(f"simulation exceeded {max_events} events")
            self._events_processed += processed
            return self.now
        while heap:
            if self.interrupted is not None:
                break
            time, _seq, callback = heap[0]
            if until is not None and time > until:
                break
            heapq.heappop(heap)
            self.now = time
            if tracer is not None:
                tracer.engine_event(time, _seq)
            callback()
            processed += 1
            if max_events is not None and processed > max_events:
                raise RuntimeError(f"simulation exceeded {max_events} events")
        self._events_processed += processed
        return self.now

    @property
    def pending(self) -> int:
        """Number of events still queued."""
        return len(self._heap)

    @property
    def events_processed(self) -> int:
        """Total events executed by :meth:`run` so far."""
        return self._events_processed


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
