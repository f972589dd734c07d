"""Discrete-event simulation substrate for threading-runtime models.

This package is the hardware/runtime substrate that replaces the paper's
dual-socket Xeon E5-2699v3 testbed (see DESIGN.md, "Substitutions").  It
provides:

- :mod:`repro.sim.machine` -- a parameterized shared-memory NUMA machine
  model (sockets, cores, SMT, clock, memory bandwidth).
- :mod:`repro.sim.costs` -- calibrated overhead constants for the runtime
  mechanisms the paper discusses (fork/join, barriers, chunk dispatch,
  task spawn, steals, locks, reducers).
- :mod:`repro.sim.memory` -- a roofline-style task duration model with
  bandwidth contention and locality effects.
- :mod:`repro.sim.task` -- the workload intermediate representation
  (tasks, task graphs, iteration spaces, programs).
- :mod:`repro.sim.deque` -- work-stealing deque models (THE protocol and
  lock-based) with per-operation cost accounting.
- :mod:`repro.sim.engine` -- FIFO lock resources (:class:`SimLock`); the
  event loop lives in :mod:`repro.runtime.workstealing`.
- :mod:`repro.sim.trace` -- execution traces and derived statistics.
"""

from repro.sim.costs import CostModel
from repro.sim.device import Device
from repro.sim.engine import SimLock
from repro.sim.machine import Machine
from repro.sim.memory import MemoryModel
from repro.sim.task import (
    IterSpace,
    LoopRegion,
    Program,
    SerialRegion,
    Task,
    TaskGraph,
    TaskRegion,
)
from repro.sim.trace import SimResult, WorkerStats

__all__ = [
    "CostModel",
    "Device",
    "SimLock",
    "IterSpace",
    "LoopRegion",
    "Machine",
    "MemoryModel",
    "Program",
    "SerialRegion",
    "SimResult",
    "Task",
    "TaskGraph",
    "TaskRegion",
    "WorkerStats",
]
