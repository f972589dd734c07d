"""Offloading executor: host<->device regions.

Executes :class:`~repro.sim.task.LoopRegion` annotations produced by
the accelerator front-ends (:mod:`repro.models.cuda`,
:mod:`repro.models.openacc`, and OpenMP ``target``).  A region carries:

- ``to_bytes`` / ``from_bytes`` — explicit data movement (Table II's
  "Explicit data map/movement" column);
- ``resident`` — data already lives on the device (an enclosing
  OpenACC ``data`` region / OpenMP ``target data`` / CUDA buffer
  reuse), so no per-region transfer is charged;
- ``async_overlap`` — async launch (CUDA streams, OpenACC ``async``):
  transfers overlap kernel execution instead of serializing.

The executor also models the host-side launch path: each offload is
issued by one host thread, so offloading costs never parallelize.
"""

from __future__ import annotations

from typing import Optional

from repro.faults import fault_doc
from repro.runtime.base import ExecContext
from repro.sim.device import Device, K40
from repro.sim.task import IterSpace
from repro.sim.trace import RegionResult, WorkerStats

__all__ = ["run_offload_loop"]


def run_offload_loop(
    space: IterSpace,
    nthreads: int,
    ctx: ExecContext,
    *,
    device: Optional[Device] = None,
    to_bytes: float = 0.0,
    from_bytes: float = 0.0,
    resident: bool = False,
    async_overlap: bool = False,
    tracer=None,
    faults=None,
) -> RegionResult:
    """Offload one data-parallel loop to ``device`` and time it.

    ``nthreads`` is accepted for executor-signature uniformity; the
    host-side issue path is single-threaded (the paper: "whether it
    allows each of the CPU threads to launch an offloading request" is
    a runtime-complexity dimension — this model issues from one).

    ``tracer`` draws the offload pipeline on two rows: worker 0 is the
    host link (``transfer`` spans for h2d/d2h) and worker 1 the device
    (``kernel`` span) — visually sync serializes the three stages while
    async overlaps the kernel with the copies.

    Under a live ``faults`` set a kernel failure (task ordinal 0) obeys
    its error mode: ``"rethrow"`` models OpenCL's host-side error path
    (the failed kernel's d2h copy-back is skipped, the error surfaces
    to the host), while ``"none"`` models unchecked CUDA/OpenACC
    launches — identical timing, all device work reported as wasted.
    """
    if nthreads <= 0:
        raise ValueError("nthreads must be positive")
    dev = device if device is not None else K40
    kernel = dev.kernel_time(space)
    if resident:
        h2d = d2h = 0.0
    else:
        h2d = dev.transfer_time(to_bytes)
        d2h = dev.transfer_time(from_bytes)
    stall0 = 0.0
    if faults is not None:
        # a host-side launch stall delays the whole pipeline; degraded
        # link/device bandwidth slows the kernel window after the h2d copy
        stall0, slow, err = faults.work_item(0, 0, 0.0, h2d)
        kernel *= slow
        # a detected kernel failure cancels the copy-back
        cancelled = err is not None and faults.mode != "none"
        if cancelled:
            d2h = 0.0
    if async_overlap:
        # staged pipeline: the long pole hides the shorter stages except
        # for one link latency to fill the pipe
        lat = 0.0 if resident else dev.link_latency
        total = max(kernel, h2d + d2h) + lat
        kernel_start = lat
    else:
        total = h2d + kernel + d2h
        kernel_start = h2d
    total += stall0
    kernel_start += stall0
    if tracer is not None:
        if stall0 > 0:
            tracer.span(0, 0.0, stall0, "stall", "worker_stall")
        if h2d > 0:
            tracer.span(0, stall0, stall0 + h2d, "transfer", "h2d")
        if d2h > 0:
            d2h_start = stall0 + (h2d if async_overlap else h2d + kernel)
            tracer.span(0, d2h_start, d2h_start + d2h, "transfer", "d2h")
        if kernel > 0:
            tracer.span(1, kernel_start, kernel_start + kernel, "kernel", space.name)
    w = WorkerStats(busy=kernel, overhead=total - kernel, tasks=1)
    meta = {
        "device": dev.name,
        "kernel": kernel,
        "h2d": h2d,
        "d2h": d2h,
        "occupancy": dev.occupancy(space.niter),
        "async": async_overlap,
        "resident": resident,
    }
    if faults is not None:
        meta["fault"] = fault_doc(
            faults.triggered, err, kernel_start + kernel, faults.mode, w.busy,
            cancelled=cancelled, cancel_time=kernel_start + kernel,
            skipped=1 if cancelled and not resident else 0,
        )
    return RegionResult(
        time=total,
        nthreads=nthreads,
        workers=[w],
        meta=meta,
    )
