"""Host-side span/counter instrumentation (``perf_counter``/``process_time``).

This is the *real-time* twin of :mod:`repro.obs`: where the tracer
explains where **simulated** seconds go, this module explains where the
**host's** wall and CPU seconds go — the sweep executor's fan-out, the
content-addressed cache's probes, the JSON codec, the engine drain.
Nothing here ever touches simulation state, so instrumented and
uninstrumented runs are bit-identical by construction (pinned by
``tests/test_perf_integration.py``, mirroring the obs zero-overhead
test).

Design:

- A per-thread stack of active :class:`PerfRecorder` objects (thread
  local, so concurrent executors in one process — a pattern the sweep
  tests exercise — record independently).  The instrumentation points
  (:func:`span`, :func:`counter`, :func:`observe`) look up the
  innermost recorder and are no-ops — one attribute lookup and a
  shared null object, no clock reads — when the stack is empty.
- :func:`recording` pushes a fresh recorder for a ``with`` block and
  times the whole block; on exit a nested recorder folds its spans
  into its parent, so an outer recording (the CLI, the benchmark
  conftest) sees every inner sweep's detail.
- ``REPRO_PERF_OFF=1`` in the environment disables :func:`recording`
  entirely (it yields ``None``); :class:`Stopwatch` stays available as
  the always-on primitive for code that must report a wall time either
  way.

Every recorded quantity is host time; simulated seconds never enter
this module.
"""

from __future__ import annotations

import os
import threading
from time import perf_counter, process_time
from typing import Any, Optional

from repro.obs.metrics import Histogram

__all__ = [
    "PerfRecorder",
    "SpanStat",
    "Stopwatch",
    "counter",
    "current",
    "observe",
    "perf_enabled",
    "recording",
    "span",
]

#: Environment opt-out: set to ``1`` to disable all recording.
PERF_OFF_ENV = "REPRO_PERF_OFF"


def perf_enabled() -> bool:
    """False when ``REPRO_PERF_OFF=1`` disables host telemetry."""
    return os.environ.get(PERF_OFF_ENV, "") != "1"


class SpanStat(Histogram):
    """Aggregated cost of one named code region: its wall-time series
    (a :class:`~repro.obs.metrics.Histogram`) and its total CPU seconds."""

    __slots__ = ("cpu",)

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self.cpu = 0.0

    @property
    def wall(self) -> float:
        return self.total

    def add(self, wall: float, cpu: float) -> None:
        self.observe(wall)
        self.cpu += cpu

    def merge(self, other: "SpanStat") -> "SpanStat":
        super().merge(other)
        self.cpu += other.cpu
        return self

    def to_dict(self) -> dict[str, float]:
        return {
            "count": self.count,
            "wall": self.total,
            "cpu": self.cpu,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
        }


class PerfRecorder:
    """Collects spans, counters and observations for one recording.

    ``wall`` / ``cpu`` are the whole recording's duration, stamped by
    :func:`recording` when the ``with`` block exits (0.0 while open).
    """

    __slots__ = ("label", "spans", "counters", "observations", "wall", "cpu")

    def __init__(self, label: str = "") -> None:
        self.label = label
        self.spans: dict[str, SpanStat] = {}
        self.counters: dict[str, int] = {}
        self.observations: dict[str, Histogram] = {}
        self.wall = 0.0
        self.cpu = 0.0

    # -- primitive sinks (called by the instrumentation points) -------
    def add_span(self, name: str, wall: float, cpu: float) -> None:
        s = self.spans.get(name)
        if s is None:
            s = self.spans[name] = SpanStat(name)
        s.add(wall, cpu)

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def observe(self, name: str, value: float) -> None:
        o = self.observations.get(name)
        if o is None:
            o = self.observations[name] = Histogram(name)
        o.observe(value)

    # -- aggregation ---------------------------------------------------
    def span_wall(self, *names: str) -> float:
        """Total wall seconds across the named spans (absent = 0)."""
        return sum(s.wall for n, s in self.spans.items() if n in names)

    def merge(self, other: "PerfRecorder") -> "PerfRecorder":
        """Fold a nested recording's detail into this recorder."""
        spans = self.spans
        for name, s in other.spans.items():
            mine = spans.get(name)
            if mine is None:
                mine = spans[name] = SpanStat(name)
            mine.merge(s)
        counters = self.counters
        for name, n in other.counters.items():
            counters[name] = counters.get(name, 0) + n
        observations = self.observations
        for name, o in other.observations.items():
            mine = observations.get(name)
            if mine is None:
                mine = observations[name] = Histogram(name)
            mine.merge(o)
        return self

    def snapshot(self) -> dict[str, Any]:
        """JSON-ready summary (sorted keys, floats only)."""
        return {
            "label": self.label,
            "wall_seconds": self.wall,
            "cpu_seconds": self.cpu,
            "spans": {n: s.to_dict() for n, s in sorted(self.spans.items())},
            "counters": {n: v for n, v in sorted(self.counters.items())},
            "observations": {
                n: o.to_dict() for n, o in sorted(self.observations.items())
            },
        }


# ---------------------------------------------------------------------------
# the active-recorder stack and the zero-overhead instrumentation points
# ---------------------------------------------------------------------------
class _PerfLocal(threading.local):
    """Per-thread recorder stack (initialized lazily per thread)."""

    def __init__(self) -> None:
        self.stack: list[PerfRecorder] = []


_LOCAL = _PerfLocal()


def current() -> Optional[PerfRecorder]:
    """The innermost active recorder on this thread, or ``None``."""
    stack = _LOCAL.stack
    return stack[-1] if stack else None


class _NullSpan:
    """Shared do-nothing span: the disabled path allocates nothing."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: Any) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class _Span:
    __slots__ = ("_rec", "_name", "_t0", "_c0")

    def __init__(self, rec: PerfRecorder, name: str) -> None:
        self._rec = rec
        self._name = name

    def __enter__(self) -> "_Span":
        self._t0 = perf_counter()
        self._c0 = process_time()
        return self

    def __exit__(self, *exc: Any) -> bool:
        self._rec.add_span(
            self._name, perf_counter() - self._t0, process_time() - self._c0
        )
        return False


def span(name: str):
    """Context manager timing one code region into the active recorder.

    With no recorder active this returns a shared null object — no
    clocks are read and nothing is allocated, so instrumented hot paths
    cost one function call when telemetry is off.
    """
    stack = _LOCAL.stack
    if not stack:
        return _NULL_SPAN
    return _Span(stack[-1], name)


def counter(name: str, n: int = 1) -> None:
    """Increment a counter on the active recorder (no-op when off)."""
    stack = _LOCAL.stack
    if stack:
        stack[-1].count(name, n)


def observe(name: str, value: float) -> None:
    """Record one observation (e.g. a probe latency) when recording."""
    stack = _LOCAL.stack
    if stack:
        stack[-1].observe(name, value)


class Stopwatch:
    """Always-on wall/CPU timer — the primitive under :func:`recording`.

    Unlike :func:`span` it works with telemetry disabled, so CLI code
    can report a run's wall time without falling back to ad-hoc
    ``time.monotonic()`` bookkeeping.
    """

    __slots__ = ("wall", "cpu", "_t0", "_c0")

    def __init__(self) -> None:
        self.wall = 0.0
        self.cpu = 0.0

    def __enter__(self) -> "Stopwatch":
        self._t0 = perf_counter()
        self._c0 = process_time()
        return self

    def __exit__(self, *exc: Any) -> bool:
        self.wall = perf_counter() - self._t0
        self.cpu = process_time() - self._c0
        return False


class _Recording:
    """The context manager :func:`recording` returns: a plain class
    rather than a generator, so entering and leaving a recording runs
    two methods and no generator machinery."""

    __slots__ = ("_label", "_rec", "_t0", "_c0")

    def __init__(self, label: str) -> None:
        self._label = label
        self._rec: Optional[PerfRecorder] = None

    def __enter__(self) -> Optional[PerfRecorder]:
        stack = _LOCAL.stack
        # telemetry is switched on or off when the outermost recording
        # starts; a nested one follows it without reading the environment
        if not stack and not perf_enabled():
            return None
        rec = self._rec = PerfRecorder(self._label)
        stack.append(rec)
        # the CPU clock is a system call: read it outside the wall window
        self._c0 = process_time()
        self._t0 = perf_counter()
        return rec

    def __exit__(self, *exc: Any) -> bool:
        rec = self._rec
        if rec is None:
            return False
        rec.wall = perf_counter() - self._t0
        rec.cpu = process_time() - self._c0
        stack = _LOCAL.stack
        popped = stack.pop()
        assert popped is rec, "unbalanced perf recording stack"
        if stack:
            parent = stack[-1]
            parent.merge(rec)
            parent.add_span(rec.label or "recording", rec.wall, rec.cpu)
        return False


def recording(label: str = "run") -> _Recording:
    """Activate a fresh recorder for the ``with`` block.

    Yields the recorder — or ``None`` when ``REPRO_PERF_OFF=1``
    disables telemetry, in which case nothing is pushed and every
    instrumentation point inside the block stays a no-op.  The
    environment is read when the outermost recording starts; a nested
    recording records whenever its parent does.  On exit the
    block's wall/CPU duration is stamped onto the recorder and, when
    the recording was nested inside another, its detail is folded into
    the parent (plus one ``label`` span for the block itself).
    """
    return _Recording(label)
