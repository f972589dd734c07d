"""Structured event tracer for the simulated runtimes.

One :class:`Tracer` instance collects everything a run emits:

- **spans** — timed intervals on a worker's timeline: task/chunk
  execution, steals, lock waits, barrier waiting, host<->device
  transfers;
- **instants** — point events (worker wake-ups, joins);
- **engine events** — every ``(time, seq)`` pair the work-stealing
  event loop (:class:`~repro.runtime.workstealing.StealingScheduler`)
  popped from its ``(time, seq, worker, kind)`` heap, for
  monotonicity/tie-order audits;
- **lock events** — every :class:`~repro.sim.engine.SimLock` grant as a
  ``(request, grant, hold)`` triple keyed by lock name.

The tracer is the single instrumentation API: the work-stealing event
loop, :class:`~repro.sim.engine.SimLock`, both deque models and all
four executors emit into it, and the validation subsystem
(:func:`repro.validate.invariants.check_trace`) consumes it.

Cost discipline: executors hold ``tracer=None`` by default and guard
every emission with one ``if tracer is not None`` branch, so the
disabled path does no allocation and produces bit-identical simulations
(tested).  Times are simulated seconds; a tracer spans a whole program
run, so :meth:`Tracer.begin_region` shifts subsequent emissions by the
program time already elapsed (executors keep emitting region-local
times).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = ["SpanEvent", "InstantEvent", "Tracer", "EXEC_KINDS", "OVERHEAD_KINDS"]

#: Span kinds that represent useful execution on a worker timeline.
#: These are the kinds the validators hold to the no-overlap invariant
#: (one worker cannot execute two things at once).
EXEC_KINDS = frozenset({"task", "chunk", "serial", "kernel", "transfer"})

#: Span kinds that represent scheduler overhead or waiting.  "stall" is
#: an injected worker stall (:mod:`repro.faults`) — lost time that is
#: neither execution nor useful scheduling.
OVERHEAD_KINDS = frozenset({"steal", "lock_wait", "barrier", "dispatch", "stall"})


@dataclass(frozen=True)
class SpanEvent:
    """One timed interval on a worker's timeline."""

    worker: int
    start: float
    end: float
    kind: str   # "task", "chunk", "steal", "lock_wait", "barrier", ...
    name: str
    region: int  # index of the enclosing program region (-1 outside any)

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class InstantEvent:
    """One point event on a worker's timeline."""

    worker: int
    time: float
    name: str
    region: int


class Tracer:
    """Collects structured events from one simulated program run.

    All times recorded are *program-absolute*: region-local times from
    executors are shifted by :attr:`offset`, which
    :func:`repro.runtime.run.run_program` advances as regions complete
    (and executors bump by their own entry cost).
    """

    __slots__ = (
        "spans",
        "instants",
        "engine_events",
        "lock_events",
        "region_names",
        "region",
        "offset",
    )

    def __init__(self) -> None:
        self.spans: list[SpanEvent] = []
        self.instants: list[InstantEvent] = []
        self.engine_events: list[tuple[float, int]] = []
        self.lock_events: dict[str, list[tuple[float, float, float]]] = {}
        self.region_names: list[str] = []
        self.region: int = -1
        self.offset: float = 0.0

    # ------------------------------------------------------------------
    # Region bookkeeping (driven by run_program)
    # ------------------------------------------------------------------
    def begin_region(self, name: str, offset: float = 0.0) -> int:
        """Start a new region: later emissions carry its index and are
        shifted by ``offset`` (program time already elapsed)."""
        self.region += 1
        self.region_names.append(name)
        self.offset = offset
        return self.region

    # ------------------------------------------------------------------
    # Emission API (executors / engine / locks)
    # ------------------------------------------------------------------
    def span(self, worker: int, start: float, end: float, kind: str, name: str = "") -> None:
        """Record a span with region-local ``start``/``end`` times."""
        off = self.offset
        self.spans.append(SpanEvent(worker, start + off, end + off, kind, name, self.region))

    def instant(self, worker: int, time: float, name: str) -> None:
        self.instants.append(InstantEvent(worker, time + self.offset, name, self.region))

    def engine_event(self, time: float, seq: int) -> None:
        """Record one processed discrete-event entry (monotonicity audit)."""
        self.engine_events.append((time + self.offset, seq))

    def lock_event(self, name: str, request: float, grant: float, hold: float) -> None:
        """Record one :class:`SimLock` acquisition (exclusivity audit)."""
        off = self.offset
        self.lock_events.setdefault(name, []).append((request + off, grant + off, hold))

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.spans) + len(self.instants) + len(self.engine_events)

    @property
    def nworkers(self) -> int:
        """Number of distinct worker rows (max worker id + 1)."""
        top = -1
        for s in self.spans:
            if s.worker > top:
                top = s.worker
        for i in self.instants:
            if i.worker > top:
                top = i.worker
        return top + 1

    @property
    def horizon(self) -> float:
        """Latest span end / instant time in the trace."""
        end = 0.0
        for s in self.spans:
            if s.end > end:
                end = s.end
        for i in self.instants:
            if i.time > end:
                end = i.time
        return end

    def exec_spans(self) -> list[SpanEvent]:
        """Spans representing execution (the no-overlap timeline)."""
        return [s for s in self.spans if s.kind in EXEC_KINDS]

    def intervals(self, kinds: Optional[frozenset] = None) -> list[tuple[int, float, float, str]]:
        """Execution spans as ``(worker, start, end, tag)`` tuples — the
        input format of :func:`repro.sim.trace.render_gantt`."""
        use = EXEC_KINDS if kinds is None else kinds
        return [
            (s.worker, s.start, s.end, s.name or s.kind)
            for s in self.spans
            if s.kind in use
        ]

    def time_by_kind(self) -> dict[str, float]:
        """Total span seconds per kind (attribution raw material)."""
        acc: dict[str, float] = {}
        for s in self.spans:
            acc[s.kind] = acc.get(s.kind, 0.0) + (s.end - s.start)
        return acc

    def describe(self) -> str:
        by_kind = self.time_by_kind()
        kinds = ", ".join(
            f"{k}={v * 1e6:.1f}us" for k, v in sorted(by_kind.items())
        )
        return (
            f"trace: {len(self.spans)} spans / {len(self.instants)} instants / "
            f"{len(self.engine_events)} engine events / "
            f"{sum(len(v) for v in self.lock_events.values())} lock grants "
            f"over {self.nworkers} workers, horizon {self.horizon * 1e3:.3f}ms"
            + (f" [{kinds}]" if kinds else "")
        )
