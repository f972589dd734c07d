"""Runtime-system models: the schedulers behind the programming models.

The paper (section III.B) identifies the main scheduling mechanisms of
threading runtimes:

- **fork-join + worksharing** (OpenMP ``parallel``/``for``):
  :mod:`repro.runtime.worksharing` with static / dynamic / guided loop
  schedules;
- **random work stealing** (Cilk Plus, TBB, OpenMP tasks):
  :mod:`repro.runtime.workstealing`, parameterized by deque protocol
  (THE vs. lock-based) and spawn discipline;
- **bare threads** (C++11 ``std::thread`` / ``std::async``, PThreads):
  :mod:`repro.runtime.threadpool`, where the programmer does the
  chunking and the runtime does almost nothing.

A stealing loop is a task graph on the stealing scheduler, and the
stealing executors price a region's ``entry``/``exit`` markers
themselves.  :mod:`repro.runtime.run` dispatches each region of a
:class:`~repro.sim.task.Program` through one table per region kind
(loop or task graph), calling every executor the same way, and
assembles a :class:`~repro.sim.trace.SimResult`.
"""

from repro.runtime.base import ExecContext, ThreadExplosionError
from repro.runtime.run import execute_region, run_program
from repro.runtime.worksharing import run_worksharing_loop
from repro.runtime.workstealing import StealingScheduler, run_stealing_graph, run_stealing_loop
from repro.runtime.threadpool import run_threadpool_loop, run_threadpool_graph

__all__ = [
    "ExecContext",
    "StealingScheduler",
    "ThreadExplosionError",
    "execute_region",
    "run_program",
    "run_stealing_graph",
    "run_stealing_loop",
    "run_threadpool_graph",
    "run_threadpool_loop",
    "run_worksharing_loop",
]
