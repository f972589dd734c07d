"""Sensitivity analysis: how robust are the conclusions to calibration?

The cost constants in :class:`~repro.sim.costs.CostModel` are
order-of-magnitude figures, not measurements of the authors' exact
software stack.  A reproduction that only holds for one magic constant
would be worthless, so this module varies one constant (or machine
parameter) across a factor range and re-evaluates a finding's metric —
e.g. "the cilk_for/omp_for Axpy gap at p=4" as ``the_steal`` moves from
a quarter to four times its default.

``bench_ablation_sensitivity`` uses this to show the headline findings
are stable across at least a 4x band of every constant they depend on.
A parameter the metric never reads gives bit-identical values at every
factor; the result then says ``unreached``, not "perfectly stable".
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

from repro.runtime.base import ExecContext

__all__ = ["SensitivityResult", "cost_sensitivity", "machine_sensitivity", "render_sensitivity"]

DEFAULT_FACTORS = (0.25, 0.5, 1.0, 2.0, 4.0)


@dataclass
class SensitivityResult:
    """Metric values across parameter scalings."""

    parameter: str
    base_value: float
    factors: tuple[float, ...]
    metric_values: tuple[float, ...]
    metric_name: str
    unreached: bool = False
    """Every factor gave a bit-identical value: the spread shows nothing."""

    def spread(self) -> float:
        """max/min of the metric across the factor range."""
        lo, hi = min(self.metric_values), max(self.metric_values)
        return hi / lo if lo > 0 else float("inf")

    def stable_within(self, band: float) -> bool:
        """True if the parameter reaches the metric and the metric stays
        within a multiplicative band."""
        return not self.unreached and self.spread() <= band


def _scan(factors: Sequence[float], evaluate: Callable[[float], float]) -> dict:
    """The result fields of ``evaluate`` over ``factors``."""
    values = tuple(float(evaluate(f)) for f in factors)
    unreached = len(set(factors)) > 1 and len(set(values)) == 1
    return dict(factors=tuple(factors), metric_values=values, unreached=unreached)


def cost_sensitivity(
    param: str,
    metric: Callable[[ExecContext], float],
    *,
    metric_name: str = "metric",
    factors: Sequence[float] = DEFAULT_FACTORS,
    ctx: Optional[ExecContext] = None,
) -> SensitivityResult:
    """Scale one cost constant and re-evaluate ``metric(ctx)``.

    ``metric`` receives a context with the scaled constant and returns
    a scalar (e.g. a version-ratio from a small sweep).
    """
    ctx = ctx or ExecContext()
    base = getattr(ctx.costs, param)  # raises AttributeError for typos
    return SensitivityResult(
        parameter=f"costs.{param}",
        base_value=base,
        metric_name=metric_name,
        **_scan(factors, lambda f: metric(ctx.with_costs(**{param: base * f}))),
    )


def machine_sensitivity(
    param: str,
    metric: Callable[[ExecContext], float],
    *,
    metric_name: str = "metric",
    factors: Sequence[float] = DEFAULT_FACTORS,
    ctx: Optional[ExecContext] = None,
) -> SensitivityResult:
    """Scale one machine parameter and re-evaluate ``metric(ctx)``."""
    ctx = ctx or ExecContext()
    base = getattr(ctx.machine, param)
    if not isinstance(base, (int, float)):
        raise TypeError(f"machine.{param} is not numeric")
    return SensitivityResult(
        parameter=f"machine.{param}",
        base_value=float(base),
        metric_name=metric_name,
        **_scan(factors, lambda f: metric(
            ctx.with_machine(replace(ctx.machine, **{param: type(base)(base * f)})))),
    )


def render_sensitivity(results: Sequence[SensitivityResult]) -> str:
    """Table: one row per parameter, metric value per scaling factor."""
    if not results:
        return "(no sensitivity results)"
    factors = results[0].factors
    width = max(len(r.parameter) for r in results) + 2
    lines = [
        f"sensitivity of {results[0].metric_name}",
        f"{'parameter':<{width}}" + "".join(f"{'x' + str(f):>9}" for f in factors)
        + f"{'spread':>9}",
    ]
    for r in results:
        if r.factors != factors:
            raise ValueError("all results must share the factor grid")
        cells = "".join(f"{v:9.3f}" for v in r.metric_values)
        spread = "  unreached" if r.unreached else f"{r.spread():9.2f}"
        lines.append(f"{r.parameter:<{width}}{cells}{spread}")
    return "\n".join(lines)
