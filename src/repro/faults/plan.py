"""Fault plans: deterministic, simulated-time fault descriptions.

A :class:`FaultPlan` is an immutable set of :class:`Fault` records.
Faults are keyed on *simulated* quantities only — region name, task
ordinal, simulated time, worker id — never on wall-clock time or host
randomness, so a plan applied to a fixed-seed run produces bit-identical
results on every execution path (direct, forked sweep worker, cache
replay).

The textual spec grammar accepted by :meth:`FaultPlan.parse` (used by
``repro faults --inject`` and ``repro validate --inject``) is::

    spec    := fault (';' fault)*
    fault   := kind (':' arg (',' arg)*)?
    arg     := key '=' value

e.g. ``fail:task=5``, ``stall:worker=2,at=0.001,duration=0.005``,
``fail:at=1e-3;bandwidth:at=0,duration=0.01,factor=0.5``.

Unknown kinds and unknown argument keys raise :class:`ValueError`, which
the CLI maps to exit code 2 — the same contract as unknown workloads and
models.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Iterable, Optional, Sequence, Union

from repro.faults.semantics import ERROR_MODES

__all__ = ["FAULT_KINDS", "Fault", "FaultPlan", "RegionFaults"]

#: The four injectable fault kinds.
FAULT_KINDS = ("task_fail", "worker_stall", "lock_delay", "bandwidth_degrade")

#: Short spec aliases accepted by :meth:`FaultPlan.parse`.
_KIND_ALIASES = {
    "fail": "task_fail",
    "task_fail": "task_fail",
    "stall": "worker_stall",
    "worker_stall": "worker_stall",
    "lockdelay": "lock_delay",
    "lock_delay": "lock_delay",
    "bandwidth": "bandwidth_degrade",
    "bandwidth_degrade": "bandwidth_degrade",
}

_FLOAT_KEYS = frozenset({"at", "duration", "factor"})
_INT_KEYS = frozenset({"task", "worker", "attempts"})
_STR_KEYS = frozenset({"region", "error"})


@dataclass(frozen=True)
class Fault:
    """One injectable fault.

    ``kind``      one of :data:`FAULT_KINDS`.
    ``region``    substring of the region name to target ("" = any region).
    ``task``      task/chunk ordinal to fail (``task_fail``; None = first
                  task starting at or after ``at``).
    ``at``        simulated-time trigger (seconds into the region).
    ``worker``    worker id to stall (``worker_stall``; None = any worker).
    ``duration``  stall length / degradation window length (seconds).
    ``factor``    bandwidth multiplier during a degradation window.
    ``error``     error message carried by a ``task_fail``.
    ``attempts``  the fault fires on region attempts ``0..attempts-1``;
                  a retry beyond that runs fault-free (so retries can
                  actually recover).
    """

    kind: str
    region: str = ""
    task: Optional[int] = None
    at: Optional[float] = None
    worker: Optional[int] = None
    duration: float = 0.0
    factor: float = 1.0
    error: str = "injected fault"
    attempts: int = 1

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of "
                + ", ".join(FAULT_KINDS)
            )
        if self.kind == "task_fail" and self.task is None and self.at is None:
            raise ValueError("task_fail needs task= or at=")
        if self.kind == "bandwidth_degrade" and not 0.0 < self.factor:
            raise ValueError("bandwidth_degrade needs factor > 0")
        if self.duration < 0.0:
            raise ValueError("duration must be >= 0")
        if self.attempts < 1:
            raise ValueError("attempts must be >= 1")

    def to_dict(self) -> dict[str, Any]:
        doc: dict[str, Any] = {"kind": self.kind}
        for f in fields(self):
            if f.name == "kind":
                continue
            value = getattr(self, f.name)
            if value != f.default:
                doc[f.name] = value
        return doc


def _parse_one(text: str) -> Fault:
    head, _, argstr = text.strip().partition(":")
    kind = _KIND_ALIASES.get(head.strip().lower())
    if kind is None:
        raise ValueError(
            f"unknown fault kind {head.strip()!r}; expected one of "
            + ", ".join(sorted(set(_KIND_ALIASES)))
        )
    kwargs: dict[str, Any] = {}
    if argstr.strip():
        for part in argstr.split(","):
            key, eq, raw = part.partition("=")
            key = key.strip()
            raw = raw.strip()
            if not eq or not key:
                raise ValueError(f"malformed fault argument {part.strip()!r}")
            if key in _FLOAT_KEYS:
                kwargs[key] = float(raw)
            elif key in _INT_KEYS:
                kwargs[key] = int(raw)
            elif key in _STR_KEYS:
                kwargs[key] = raw
            else:
                raise ValueError(
                    f"unknown fault argument {key!r} for {kind}; expected one of "
                    + ", ".join(sorted(_FLOAT_KEYS | _INT_KEYS | _STR_KEYS))
                )
    return Fault(kind=kind, **kwargs)


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, order-preserving collection of faults."""

    faults: tuple[Fault, ...] = ()

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Parse a ``--inject`` spec string; raises ValueError on bad input."""
        parts = [p for p in spec.split(";") if p.strip()]
        if not parts:
            raise ValueError(f"empty fault spec {spec!r}")
        return cls(tuple(_parse_one(p) for p in parts))

    @classmethod
    def coerce(
        cls, value: Union["FaultPlan", str, Sequence, dict, None]
    ) -> Optional["FaultPlan"]:
        """Accept a plan, a spec string, a fault list, or a dict form."""
        if value is None:
            return None
        if isinstance(value, FaultPlan):
            return value
        if isinstance(value, str):
            return cls.parse(value)
        if isinstance(value, dict):
            return cls.from_dict(value)
        faults = []
        for item in value:
            if isinstance(item, Fault):
                faults.append(item)
            elif isinstance(item, dict):
                faults.append(Fault(**item))
            elif isinstance(item, str):
                faults.append(_parse_one(item))
            else:
                raise ValueError(f"cannot coerce {item!r} into a Fault")
        return cls(tuple(faults))

    def to_dict(self) -> dict[str, Any]:
        return {"faults": [f.to_dict() for f in self.faults]}

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> "FaultPlan":
        return cls(tuple(Fault(**f) for f in doc.get("faults", ())))

    def __bool__(self) -> bool:
        return bool(self.faults)

    def __iter__(self) -> Iterable[Fault]:
        return iter(self.faults)

    def for_region(
        self, name: str, index: int, attempt: int = 0, mode: str = "none"
    ) -> Optional["RegionFaults"]:
        """The live fault set for one attempt of one region, or None.

        A fault matches when its ``region`` field is empty, equals the
        region's positional index (as a decimal string), or is a
        substring of the region's name, and the attempt number is still
        within the fault's ``attempts`` budget.  ``mode`` is the Table
        III discipline the attempt runs under (see
        :func:`repro.faults.semantics.error_mode`).
        """
        live = [
            f
            for f in self.faults
            if attempt < f.attempts
            and (not f.region or f.region == str(index) or f.region in name)
        ]
        if not live:
            return None
        return RegionFaults(live, mode)


class RegionFaults:
    """Stateful per-attempt view of the faults aimed at one region.

    The one fault handle an executor sees: ``mode`` is the Table III
    error-handling discipline of the attempt (one of
    :data:`~repro.faults.semantics.ERROR_MODES`), and :meth:`work_item`
    times the faults of each work item.  Each one-shot fault fires at
    most once per attempt.  ``triggered`` collects ``(kind, time)``
    pairs for accounting.
    """

    def __init__(self, faults: Sequence[Fault], mode: str = "none") -> None:
        if mode not in ERROR_MODES:
            raise ValueError(
                f"unknown error mode {mode!r}; expected one of " + ", ".join(ERROR_MODES)
            )
        self.mode = mode
        self._fail = [f for f in faults if f.kind == "task_fail"]
        self._stall = [f for f in faults if f.kind == "worker_stall"]
        self._lock = [f for f in faults if f.kind == "lock_delay"]
        self._bandwidth = [f for f in faults if f.kind == "bandwidth_degrade"]
        self._fail_fired = False
        self._stall_fired = [False] * len(self._stall)
        self._lock_fired = [False] * len(self._lock)
        self.triggered: list[tuple[str, float]] = []

    def work_item(
        self, ordinal: int, worker: int, t: float, lead: float = 0.0
    ) -> tuple[float, float, Optional[str]]:
        """``(stall, slow factor, error)`` of one work item.

        The item is issued at simulated time ``t`` on ``worker``; its
        stall is evaluated at ``t``, and its execution, which begins
        ``lead`` seconds after the stall (a dispatch or copy-in), is
        slowed and possibly failed at ``t + stall + lead``.
        """
        stall = self._stall_delay(worker, t)
        at = t + stall + lead
        return stall, self._slow_factor(at), self._fail_task(ordinal, at)

    # -- task failure ---------------------------------------------------
    def _fail_task(self, ordinal: int, t: float) -> Optional[str]:
        """Error message if the task with this ordinal, starting at
        simulated time ``t``, should fail; else None.  Fires once."""
        if self._fail_fired:
            return None
        for f in self._fail:
            if f.task is not None:
                if ordinal == f.task:
                    self._fail_fired = True
                    self.triggered.append(("task_fail", t))
                    return f.error
            elif f.at is not None and t >= f.at:
                self._fail_fired = True
                self.triggered.append(("task_fail", t))
                return f.error
        return None

    # -- worker stall ---------------------------------------------------
    def _stall_delay(self, worker: int, t: float) -> float:
        """Extra delay (seconds) injected before work starting at ``t``
        on ``worker``.  Each stall fault fires once."""
        delay = 0.0
        for i, f in enumerate(self._stall):
            if self._stall_fired[i]:
                continue
            if f.worker is not None and f.worker != worker:
                continue
            if f.at is not None and t < f.at:
                continue
            self._stall_fired[i] = True
            self.triggered.append(("worker_stall", t))
            delay += f.duration
        return delay

    # -- lock-holder delay ----------------------------------------------
    def lock_delay(self, t: float) -> float:
        """Extra hold time injected into the next lock acquisition at
        or after each fault's trigger time.  Fires once per fault."""
        delay = 0.0
        for i, f in enumerate(self._lock):
            if self._lock_fired[i]:
                continue
            if f.at is not None and t < f.at:
                continue
            self._lock_fired[i] = True
            self.triggered.append(("lock_delay", t))
            delay += f.duration
        return delay

    # -- transient bandwidth degradation --------------------------------
    def _slow_factor(self, t: float) -> float:
        """Duration multiplier for work starting at simulated time ``t``.

        A degradation with ``factor=0.5`` halves effective bandwidth, so
        memory-bound durations double (multiplier ``1/factor``) inside
        the window ``[at, at + duration)``.
        """
        mult = 1.0
        for f in self._bandwidth:
            start = f.at or 0.0
            if start <= t < start + f.duration:
                if ("bandwidth_degrade", start) not in self.triggered:
                    self.triggered.append(("bandwidth_degrade", start))
                mult *= 1.0 / f.factor
        return mult
