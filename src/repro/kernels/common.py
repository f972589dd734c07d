"""Shared helpers for kernel workload builders.

Workloads express cost as operation counts and byte counts;
:func:`op_seconds` converts operations to seconds using the machine
clock and an effective instructions-per-cycle figure (vectorized
streaming FP code on Haswell retires on the order of 8 double-precision
FLOPs per cycle; scalar pointer-chasing code closer to 1).

:func:`dispatch_loop` maps the paper's six version names onto the model
front-ends for a simple data-parallel loop — the pattern shared by
Axpy, Sum, Matvec, Matmul and most Rodinia phases.
"""

from __future__ import annotations

from typing import Optional

from repro.models import AMT_VERSIONS, VERSIONS, charm, cilk, cxx11, hpx, mpi, openmp
from repro.sim.machine import Machine
from repro.sim.task import IterSpace, LoopRegion, Program

__all__ = [
    "op_seconds",
    "dispatch_loop",
    "KERNELS",
    "kernel_module",
    "build_kernel_program",
]


def op_seconds(machine: Machine, ops: float, ipc: float = 8.0) -> float:
    """Seconds to retire ``ops`` operations at ``ipc`` per cycle."""
    if ops < 0:
        raise ValueError("ops must be non-negative")
    if ipc <= 0:
        raise ValueError("ipc must be positive")
    return ops / (machine.ghz * 1e9 * ipc)


def dispatch_loop(
    version: str,
    space: IterSpace,
    *,
    reduction: bool = False,
    schedule: str = "static",
    chunks_per_thread: int = 1,
    grainsize: Optional[int] = None,
    persistent_pool: bool = False,
) -> LoopRegion:
    """Build one data-parallel loop region in the named version.

    The six names follow the paper's evaluation: ``omp_for``,
    ``omp_task``, ``cilk_for``, ``cilk_spawn``, ``cxx_thread``,
    ``cxx_async``.  ``chunks_per_thread`` only affects the task
    versions, which chunk at task-creation time.
    """
    if version == "omp_for":
        return openmp.parallel_for(space, schedule=schedule, reduction=reduction)
    if version == "omp_task":
        return openmp.task_loop(space, chunks_per_thread=chunks_per_thread, reduction=reduction)
    if version == "cilk_for":
        return cilk.cilk_for(space, grainsize=grainsize, reducer=reduction)
    if version == "cilk_spawn":
        return cilk.spawn_loop(space, chunks_per_thread=chunks_per_thread, reducer=False)
    if version == "cxx_thread":
        return cxx11.thread_for(space, reduction=reduction, persistent=persistent_pool)
    if version == "cxx_async":
        return cxx11.async_for(space, reduction=reduction, persistent=persistent_pool)
    if version == "charm":
        return charm.chare_for(space, reduction=reduction)
    if version == "hpx":
        return hpx.async_for(space, reduction=reduction)
    if version == "mpi":
        return mpi.rank_for(space, reduction=reduction)
    raise ValueError(
        f"unknown version {version!r}; expected one of {VERSIONS + AMT_VERSIONS}"
    )


def kernel_module(name: str):
    """Return the kernel module registered under ``name``."""
    try:
        return KERNELS[name]
    except KeyError:
        raise KeyError(f"unknown kernel {name!r}; known: {sorted(KERNELS)}") from None


def build_kernel_program(name: str, version: str, machine: Machine, **params) -> Program:
    """Build ``name``'s program in ``version`` (registry convenience)."""
    return kernel_module(name).program(version, machine=machine, **params)


# Populated at the bottom of repro.kernels.__init__ import time; kept
# here so core.registry has a single lookup point.
KERNELS: dict = {}


def _register(name: str, module) -> None:
    KERNELS[name] = module
