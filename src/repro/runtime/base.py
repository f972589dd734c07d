"""Shared execution context and errors for the runtime layer."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Any

from repro.sim.costs import CostModel
from repro.sim.machine import Machine, PAPER_MACHINE
from repro.sim.memory import MemoryModel

__all__ = ["ExecContext", "ThreadExplosionError", "cut_at_cancel"]


class ThreadExplosionError(RuntimeError):
    """Raised when a bare-thread execution would create an unbounded
    number of OS threads.

    This reproduces the paper's observation that the recursive C++11
    Fibonacci "hangs because huge number of threads is created" once the
    problem size reaches 20.
    """


def cut_at_cancel(starts: list[float], ends: list[float], cancel_time: float) -> list[bool]:
    """Apply an asynchronous abort at ``cancel_time`` to laid-out work.

    ``pthread_cancel`` and ``MPI_Abort`` share one cut-off: an item that
    would start at or after the cancel time is never issued, and an
    item still running then is cut off at it (``ends`` is shortened in
    place).  Returns each item's issued flag.
    """
    issued = [s < cancel_time for s in starts]
    for i, live in enumerate(issued):
        if live and ends[i] > cancel_time:
            ends[i] = cancel_time
    return issued


@lru_cache(maxsize=128)
def _memory_model(machine: Machine) -> MemoryModel:
    """One shared (frozen, stateless) memory model per machine.

    :class:`Machine` is a frozen hashable dataclass and
    :class:`MemoryModel` holds no mutable state, so caching here is
    observable only as speed: ``ExecContext.duration`` sits on the hot
    path of every event-driven executor and used to construct a fresh
    model per call.
    """
    return MemoryModel(machine)


@dataclass(frozen=True)
class ExecContext:
    """Everything an executor needs besides the workload itself.

    ``seed`` drives victim selection in the work-stealing scheduler;
    fixing it makes whole experiment sweeps bit-reproducible.
    """

    machine: Machine = PAPER_MACHINE
    costs: CostModel = field(default_factory=CostModel)
    seed: int = 0xC11C
    max_events: int = 50_000_000
    thread_cap: int = 32768
    """Maximum simultaneous OS threads before a bare-thread execution is
    declared hung (:class:`ThreadExplosionError`).  The default makes
    the recursive C++11 Fibonacci explode exactly at n=20 (32836 tasks),
    matching the paper's "system hangs" threshold."""

    fidelity: int = 2
    """Simulation fidelity (:mod:`repro.sim.tiers`): ``2`` simulate (the
    discrete-event simulation), ``0`` estimate (closed-form, from
    :func:`repro.sim.tiers.estimate_program`).  No executor reads it; it
    travels with the context so sweep cells and cache keys can tell an
    estimate from a simulation."""

    def __post_init__(self) -> None:
        if self.fidelity not in (0, 2):
            raise ValueError(f"fidelity must be 0 or 2, got {self.fidelity!r}")

    @property
    def memory(self) -> MemoryModel:
        return _memory_model(self.machine)

    def with_costs(self, **overrides: Any) -> "ExecContext":
        """Context with some cost constants overridden (ablations)."""
        return replace(self, costs=self.costs.with_overrides(**overrides))

    def with_machine(self, machine: Machine) -> "ExecContext":
        return replace(self, machine=machine)

    def with_fidelity(self, fidelity: int) -> "ExecContext":
        """Context at another fidelity, 0 or 2 (see :mod:`repro.sim.tiers`)."""
        return replace(self, fidelity=fidelity)

    def duration(
        self, work: float, membytes: float = 0.0, locality: float = 1.0, active: int = 1
    ) -> float:
        """Shorthand for the memory model's roofline duration."""
        return self.memory.duration(work, membytes, locality, active)
