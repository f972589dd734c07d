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

:func:`run_demo` executes one demo; :mod:`repro.validate.faultcheck`
runs the whole matrix and checks the observed fault documents against
each row's expectations.  The feature database
(:mod:`repro.features.data`) cross-links each Table III cell to its
demo via ``Support.demo``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.faults.plan import FaultPlan
from repro.runtime.base import ExecContext
from repro.sim.trace import RegionResult

__all__ = ["FaultDemo", "FAULT_DEMOS", "run_demo"]


@dataclass(frozen=True)
class FaultDemo:
    """One Table III row made executable.

    ``expect_*`` fields are the observable semantics the row's construct
    implies; :func:`repro.validate.faultcheck.run_fault_matrix` asserts
    them against the ``meta["fault"]`` document of an actual run.
    """

    model: str            # feature-table model name (repro.features)
    construct: str        # the Table III cell text being demonstrated
    mode: str             # error mode (repro.faults.semantics)
    spec: str             # default --inject spec for the demo
    runtime: str          # which executor family carries the demo
    expect_failed: bool   # attempt counts as failed
    expect_cancelled: bool    # issuing stops at the cancellation point
    expect_skipped: bool      # some work items are never issued
    expect_wasted: bool       # busy seconds are written off as wasted

    def run(
        self, nthreads: int, ctx: ExecContext, tracer=None,
        spec: Optional[str] = None,
    ) -> RegionResult:
        """Execute the demo and return the faulted region result."""
        faults = FaultPlan.parse(spec if spec is not None else self.spec)
        return _RUNNERS[self.model](self, nthreads, ctx, faults, tracer)


def _space(ctx: ExecContext, n: int = 40_000):
    from repro.kernels import axpy

    return axpy.space(ctx.machine, n)


def _run_openmp(demo, p, ctx, faults, tracer):
    # omp cancel for: the failing chunk requests cancellation, chunks
    # already issued drain, the dynamic dispatcher issues no new ones.
    from repro.runtime.worksharing import run_worksharing_loop

    space = _space(ctx)
    return run_worksharing_loop(
        space, p, ctx, schedule="dynamic", chunk=max(1, space.niter // 64),
        tracer=tracer, faults=faults.for_region(space.name, 0, mode=demo.mode),
    )


def _run_tbb(demo, p, ctx, faults, tracer):
    # task_group cancellation / exception: the failing task poisons the
    # scheduler; workers stop acquiring, undone descendants are skipped.
    from repro.kernels import fib
    from repro.runtime.workstealing import run_stealing_graph

    graph = fib.graph(12)
    return run_stealing_graph(
        graph, p, ctx, tracer=tracer,
        faults=faults.for_region("fib", 0, mode=demo.mode),
    )


def _run_cxx11(demo, p, ctx, faults, tracer):
    # std::async/future: the exception is stored in the shared state and
    # rethrown at future.get(); peers run to completion first.
    from repro.runtime.threadpool import run_threadpool_loop

    space = _space(ctx)
    return run_threadpool_loop(
        space, p, ctx, mode="async", nchunks=8, tracer=tracer,
        faults=faults.for_region(space.name, 0, mode=demo.mode),
    )


def _run_pthreads(demo, p, ctx, faults, tracer):
    # pthread_cancel: asynchronous termination — threads not yet created
    # at the cancellation point never start.
    from repro.runtime.threadpool import run_threadpool_loop

    space = _space(ctx)
    return run_threadpool_loop(
        space, p, ctx, mode="thread", nchunks=64, tracer=tracer,
        faults=faults.for_region(space.name, 0, mode=demo.mode),
    )


def _run_opencl(demo, p, ctx, faults, tracer):
    # command-queue error event: the kernel fails, the copy-back is
    # skipped and the error surfaces on the host.
    from repro.runtime.offload import run_offload_loop

    space = _space(ctx)
    return run_offload_loop(
        space, p, ctx, to_bytes=space.total_bytes, from_bytes=space.total_bytes,
        tracer=tracer, faults=faults.for_region(space.name, 0, mode=demo.mode),
    )


def _run_cuda(demo, p, ctx, faults, tracer):
    # Table III "x": no error handling — the kernel runs to completion,
    # the failure is silent, all busy seconds are wasted.
    from repro.runtime.offload import run_offload_loop

    space = _space(ctx)
    return run_offload_loop(
        space, p, ctx, to_bytes=space.total_bytes, from_bytes=space.total_bytes,
        tracer=tracer, faults=faults.for_region(space.name, 0, mode=demo.mode),
    )


def _run_cilk(demo, p, ctx, faults, tracer):
    # Table III "x" for cilk_for data parallelism: every chunk executes,
    # the wasted-work counter records the cost of not being able to stop.
    from repro.runtime.workstealing import run_stealing_loop

    space = _space(ctx)
    return run_stealing_loop(
        space, p, ctx, style="cilk_for", tracer=tracer,
        faults=faults.for_region(space.name, 0, mode=demo.mode),
    )


def _run_charm(demo, p, ctx, faults, tracer):
    # message-driven run-to-completion: a failed entry method cannot be
    # recalled; every chare executes, the failure surfaces at quiescence.
    from repro.runtime.amt import run_charm_loop

    space = _space(ctx)
    return run_charm_loop(
        space, p, ctx, nchares=32, tracer=tracer,
        faults=faults.for_region(space.name, 0, mode=demo.mode),
    )


def _run_hpx(demo, p, ctx, faults, tracer):
    # future poisoning: the failed future stores the exception and its
    # transitive dependents never fire (skipped); siblings complete.
    from repro.kernels import fib
    from repro.runtime.amt import run_hpx_graph

    graph = fib.graph(12)
    return run_hpx_graph(
        graph, p, ctx, tracer=tracer,
        faults=faults.for_region("fib", 0, mode=demo.mode),
    )


def _run_mpi(demo, p, ctx, faults, tracer):
    # MPI_Abort: the failing rank tears the job down — running chunks
    # are cut off at the failure instant, unstarted chunks never issue.
    from repro.runtime.amt import run_mpi_loop

    space = _space(ctx)
    return run_mpi_loop(
        space, p, ctx, nchunks=32, tracer=tracer,
        faults=faults.for_region(space.name, 0, mode=demo.mode),
    )


_RUNNERS = {
    "OpenMP": _run_openmp,
    "TBB": _run_tbb,
    "C++11": _run_cxx11,
    "PThreads": _run_pthreads,
    "OpenCL": _run_opencl,
    "CUDA": _run_cuda,
    "OpenACC": _run_cuda,   # same offload pipeline, same "x" semantics
    "Cilk Plus": _run_cilk,
    "Charm++": _run_charm,
    "HPX": _run_hpx,
    "MPI": _run_mpi,
}


#: Every Table III row, keyed by feature-table model name.  "Yes" rows
#: demonstrate the construct; "x" rows demonstrate its absence (run to
#: completion, non-zero wasted work).
FAULT_DEMOS: dict[str, FaultDemo] = {
    "OpenMP": FaultDemo(
        model="OpenMP", construct="omp cancel", mode="cancel",
        spec="fail:task=2", runtime="worksharing",
        expect_failed=True, expect_cancelled=True,
        expect_skipped=True, expect_wasted=True,
    ),
    "TBB": FaultDemo(
        model="TBB", construct="cancellation and exception", mode="poison",
        spec="fail:task=5", runtime="workstealing",
        expect_failed=True, expect_cancelled=True,
        expect_skipped=True, expect_wasted=True,
    ),
    "C++11": FaultDemo(
        model="C++11", construct="C++ exception", mode="rethrow",
        spec="fail:task=1", runtime="threadpool",
        expect_failed=True, expect_cancelled=False,
        expect_skipped=False, expect_wasted=True,
    ),
    "PThreads": FaultDemo(
        model="PThreads", construct="pthread_cancel", mode="async_cancel",
        spec="fail:task=0", runtime="threadpool",
        expect_failed=True, expect_cancelled=True,
        expect_skipped=True, expect_wasted=True,
    ),
    "OpenCL": FaultDemo(
        model="OpenCL", construct="exceptions", mode="rethrow",
        spec="fail:task=0", runtime="offload",
        expect_failed=True, expect_cancelled=True,
        expect_skipped=True, expect_wasted=True,
    ),
    "CUDA": FaultDemo(
        model="CUDA", construct="x (no error handling)", mode="none",
        spec="fail:task=0", runtime="offload",
        expect_failed=False, expect_cancelled=False,
        expect_skipped=False, expect_wasted=True,
    ),
    "OpenACC": FaultDemo(
        model="OpenACC", construct="x (no error handling)", mode="none",
        spec="fail:task=0", runtime="offload",
        expect_failed=False, expect_cancelled=False,
        expect_skipped=False, expect_wasted=True,
    ),
    "Cilk Plus": FaultDemo(
        model="Cilk Plus", construct="x (no error handling)", mode="none",
        spec="fail:task=3", runtime="workstealing",
        expect_failed=False, expect_cancelled=False,
        expect_skipped=False, expect_wasted=True,
    ),
    "Charm++": FaultDemo(
        model="Charm++", construct="message loss at quiescence", mode="msg_loss",
        spec="fail:task=2", runtime="amt",
        expect_failed=True, expect_cancelled=False,
        expect_skipped=False, expect_wasted=True,
    ),
    "HPX": FaultDemo(
        model="HPX", construct="future poisoning", mode="future_poison",
        spec="fail:task=5", runtime="amt",
        expect_failed=True, expect_cancelled=False,
        expect_skipped=True, expect_wasted=True,
    ),
    "MPI": FaultDemo(
        model="MPI", construct="MPI_Abort on rank failure", mode="rank_fail",
        spec="fail:task=0", runtime="amt",
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
