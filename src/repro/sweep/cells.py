"""Sweep cells: the unit of work of a parallel experiment sweep.

An experiment matrix (workload x version x thread count x params)
expands into independent :class:`SweepCell` instances.  Cells are
self-contained and order-free: each one names everything needed to
simulate it, so the executor can fan them out across OS processes,
replay them from the content-addressed cache, or run them serially —
in any order — and still assemble the exact :class:`SweepResult` the
old serial loop produced.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Mapping, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (core imports sweep lazily)
    from repro.core.experiment import ExperimentConfig

__all__ = ["SweepCell", "expand_cells"]


@dataclass(frozen=True, init=False)
class SweepCell:
    """One (workload, version, thread count, params) point of a sweep.

    ``faults`` / ``policy`` carry a fault-injection plan and recovery
    policy in canonical dict form (:meth:`repro.faults.FaultPlan.to_dict`
    / :meth:`repro.faults.Policy.to_dict`) so cells stay picklable and
    content-addressable; ``None`` (the default) is a fault-free cell and
    hashes exactly as it did before fault injection existed.
    """

    workload: str
    version: str
    nthreads: int
    params: Mapping[str, Any] = field(default_factory=dict)
    faults: Optional[Mapping[str, Any]] = None
    policy: Optional[Mapping[str, Any]] = None
    fidelity: int = 2
    """Simulation fidelity (:mod:`repro.sim.tiers`): ``2`` simulate (the
    discrete-event simulation), ``0`` estimate (closed-form).  The
    default keeps tier-2 cells hashing exactly as before tiers existed."""

    def __init__(
        self,
        workload: str,
        version: str,
        nthreads: int,
        params: Optional[Mapping[str, Any]] = None,
        faults: Optional[Mapping[str, Any]] = None,
        policy: Optional[Mapping[str, Any]] = None,
        fidelity: int = 2,
    ) -> None:
        if fidelity not in (0, 2):
            raise ValueError(f"fidelity must be 0 or 2, got {fidelity!r}")
        # one update of the instance dict: a frozen dataclass's generated
        # __init__ makes one object.__setattr__ call per field instead
        self.__dict__.update(
            workload=workload, version=version, nthreads=nthreads,
            params={} if params is None else params, faults=faults, policy=policy,
            fidelity=fidelity,
        )

    @property
    def key(self) -> tuple[str, int]:
        """The cell's slot in ``SweepResult.results`` / ``.errors``."""
        return (self.version, self.nthreads)

    def describe(self) -> str:
        return f"{self.workload}/{self.version} p={self.nthreads}"


def expand_cells(
    config: "ExperimentConfig",
    faults: Optional[Mapping[str, Any]] = None,
    policy: Optional[Mapping[str, Any]] = None,
    fidelity: int = 2,
) -> list[SweepCell]:
    """Expand a sweep config into its independent cells.

    The order (versions outer, thread counts inner) matches the legacy
    serial loop of ``run_experiment``; the executor may *complete* cells
    in any order but reports progress in this canonical one.  A fault
    plan / recovery policy (already in canonical dict form) and the
    fidelity apply to every cell of the sweep.
    """
    params = dict(config.params)
    return [
        SweepCell(config.workload, version, p, dict(params), faults, policy, fidelity)
        for version in config.versions
        for p in config.threads
    ]
