"""Executable demos for Table III's "Error handling" column.

The paper's table is a static claim ("OpenMP: omp cancel", "Cilk Plus:
x").  Each :class:`FaultDemo` here turns one row into a runnable
experiment: inject a deterministic task failure into the runtime that
models the row and observe the semantics the construct implies —
cancellation draining in-flight work (``omp cancel``), poisoned
stealing deques (TBB / Cilk exception semantics), a future carrying the
exception to the join point (C++11 ``std::async``), asynchronous thread
termination (``pthread_cancel``), a failed command-queue event
(OpenCL), or — for the "x" rows — the kernel running to completion with
every busy second wasted.

A demo names its region — an ``execute_region`` executor and its
params — and runs it through :func:`repro.runtime.run.execute_region`,
the dispatcher every program uses: loop demos on a 40k-iteration Axpy
space, graph demos on ``fib.graph(12)``.  Its error mode is the one
:func:`~repro.faults.semantics.error_mode` gives the row's model and
executor, the mapping :func:`~repro.runtime.run.run_program` applies.

:func:`run_demo` executes one demo; :mod:`repro.validate.faultcheck`
runs the whole matrix and checks the observed fault documents against
each row's expectations.  The feature database
(:mod:`repro.features.data`) cross-links each Table III cell to its
demo via ``Support.demo``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from repro.faults.plan import FaultPlan
from repro.faults.semantics import error_mode
from repro.kernels import axpy, fib
from repro.runtime.base import ExecContext
from repro.runtime.run import execute_region
from repro.sim.task import LoopRegion, TaskRegion
from repro.sim.trace import RegionResult

__all__ = ["FaultDemo", "FAULT_DEMOS", "run_demo"]

#: Iterations of the Axpy space the loop demos run on.
_N = 40_000
_AXPY_BYTES = float(_N * axpy.BYTES_PER_ITER)


@dataclass(frozen=True)
class FaultDemo:
    """One Table III row made executable.

    ``expect_*`` fields are the observable semantics the row's construct
    implies; :func:`repro.validate.faultcheck.run_fault_matrix` asserts
    them against the ``meta["fault"]`` document of an actual run.
    """

    model: str            # feature-table model name (repro.features)
    construct: str        # the Table III cell text being demonstrated
    spec: str             # default --inject spec for the demo
    executor: str         # execute_region executor that carries the demo
    params: dict          # the region's executor params
    expect_failed: bool   # attempt counts as failed
    expect_cancelled: bool    # issuing stops at the cancellation point
    expect_skipped: bool      # some work items are never issued
    expect_wasted: bool       # busy seconds are written off as wasted

    @property
    def mode(self) -> str:
        """Error mode (:mod:`repro.faults.semantics`) the demo runs under."""
        return error_mode(self.model, self.executor)

    def region(self, ctx: ExecContext) -> Union[LoopRegion, TaskRegion]:
        """The region the demo executes: fib(12) for a task executor,
        the Axpy space otherwise."""
        if self.executor == "stealing" or self.executor.endswith("_graph"):
            return TaskRegion(fib.graph(12), self.executor, self.params, name="fib")
        space = axpy.space(ctx.machine, _N)
        return LoopRegion(space, self.executor, self.params, name=space.name)

    def run(
        self, nthreads: int, ctx: ExecContext, tracer=None,
        spec: Optional[str] = None,
    ) -> RegionResult:
        """Execute the demo and return the faulted region result."""
        plan = FaultPlan.parse(spec if spec is not None else self.spec)
        region = self.region(ctx)
        return execute_region(
            region, nthreads, ctx, tracer=tracer,
            faults=plan.for_region(region.name, 0, mode=self.mode),
        )


#: Every Table III row, keyed by feature-table model name.  "Yes" rows
#: demonstrate the construct; "x" rows demonstrate its absence (run to
#: completion, non-zero wasted work).
FAULT_DEMOS: dict[str, FaultDemo] = {
    # omp cancel for: the failing chunk requests cancellation, chunks
    # already issued drain, the dynamic dispatcher issues no new ones.
    "OpenMP": FaultDemo(
        model="OpenMP", construct="omp cancel", spec="fail:task=2",
        executor="worksharing", params={"schedule": "dynamic", "chunk": _N // 64},
        expect_failed=True, expect_cancelled=True,
        expect_skipped=True, expect_wasted=True,
    ),
    # task_group cancellation / exception: the failing task poisons the
    # scheduler; workers stop acquiring, undone descendants are skipped.
    "TBB": FaultDemo(
        model="TBB", construct="cancellation and exception", spec="fail:task=5",
        executor="stealing", params={},
        expect_failed=True, expect_cancelled=True,
        expect_skipped=True, expect_wasted=True,
    ),
    # std::async/future: the exception is stored in the shared state and
    # rethrown at future.get(); peers run to completion first.
    "C++11": FaultDemo(
        model="C++11", construct="C++ exception", spec="fail:task=1",
        executor="threadpool", params={"mode": "async", "nchunks": 8},
        expect_failed=True, expect_cancelled=False,
        expect_skipped=False, expect_wasted=True,
    ),
    # pthread_cancel: asynchronous termination — threads not yet created
    # at the cancellation point never start.
    "PThreads": FaultDemo(
        model="PThreads", construct="pthread_cancel", spec="fail:task=0",
        executor="threadpool", params={"mode": "thread", "nchunks": 64},
        expect_failed=True, expect_cancelled=True,
        expect_skipped=True, expect_wasted=True,
    ),
    # command-queue error event: the kernel fails, the copy-back is
    # skipped and the error surfaces on the host.
    "OpenCL": FaultDemo(
        model="OpenCL", construct="exceptions", spec="fail:task=0",
        executor="offload", params={"to_bytes": _AXPY_BYTES, "from_bytes": _AXPY_BYTES},
        expect_failed=True, expect_cancelled=True,
        expect_skipped=True, expect_wasted=True,
    ),
    # Table III "x": no error handling — the kernel runs to completion,
    # the failure is silent, all busy seconds are wasted.
    "CUDA": FaultDemo(
        model="CUDA", construct="x (no error handling)", spec="fail:task=0",
        executor="offload", params={"to_bytes": _AXPY_BYTES, "from_bytes": _AXPY_BYTES},
        expect_failed=False, expect_cancelled=False,
        expect_skipped=False, expect_wasted=True,
    ),
    # same offload pipeline, same "x" semantics as CUDA
    "OpenACC": FaultDemo(
        model="OpenACC", construct="x (no error handling)", spec="fail:task=0",
        executor="offload", params={"to_bytes": _AXPY_BYTES, "from_bytes": _AXPY_BYTES},
        expect_failed=False, expect_cancelled=False,
        expect_skipped=False, expect_wasted=True,
    ),
    # Table III "x" for cilk_for data parallelism: every chunk executes,
    # the wasted-work counter records the cost of not being able to stop.
    "Cilk Plus": FaultDemo(
        model="Cilk Plus", construct="x (no error handling)", spec="fail:task=3",
        executor="stealing_loop", params={"style": "cilk_for"},
        expect_failed=False, expect_cancelled=False,
        expect_skipped=False, expect_wasted=True,
    ),
    # message-driven run-to-completion: a failed entry method cannot be
    # recalled; every chare executes, the failure surfaces at quiescence.
    "Charm++": FaultDemo(
        model="Charm++", construct="message loss at quiescence", spec="fail:task=2",
        executor="charm_loop", params={"nchares": 32},
        expect_failed=True, expect_cancelled=False,
        expect_skipped=False, expect_wasted=True,
    ),
    # future poisoning: the failed future stores the exception and its
    # transitive dependents never fire (skipped); siblings complete.
    "HPX": FaultDemo(
        model="HPX", construct="future poisoning", spec="fail:task=5",
        executor="hpx_graph", params={},
        expect_failed=True, expect_cancelled=False,
        expect_skipped=True, expect_wasted=True,
    ),
    # MPI_Abort: the failing rank tears the job down — running chunks
    # are cut off at the failure instant, unstarted chunks never issue.
    "MPI": FaultDemo(
        model="MPI", construct="MPI_Abort on rank failure", spec="fail:task=0",
        executor="mpi_loop", params={"nchunks": 32},
        expect_failed=True, expect_cancelled=True,
        expect_skipped=True, expect_wasted=True,
    ),
}


def run_demo(
    name: str,
    nthreads: int = 4,
    ctx: Optional[ExecContext] = None,
    tracer=None,
    spec: Optional[str] = None,
) -> RegionResult:
    """Execute one Table III demo by feature-model name."""
    try:
        demo = FAULT_DEMOS[name]
    except KeyError:
        raise KeyError(
            f"unknown fault demo {name!r}; known: {sorted(FAULT_DEMOS)}"
        ) from None
    return demo.run(nthreads, ctx or ExecContext(), tracer=tracer, spec=spec)
