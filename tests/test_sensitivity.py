"""Tests for the sensitivity-analysis module and placement policy."""


import pytest

from repro.core.experiment import run_experiment
from repro.core.metrics import version_ratio
from repro.core.sensitivity import (
    SensitivityResult,
    cost_sensitivity,
    machine_sensitivity,
    render_sensitivity,
)
from repro.runtime.base import ExecContext
from repro.sim.machine import Machine


def fib_ratio(ctx: ExecContext) -> float:
    s = run_experiment("fib", versions=("omp_task", "cilk_spawn"), threads=(4,), ctx=ctx, n=16)
    return version_ratio(s, "omp_task", "cilk_spawn", 4)


def axpy_gap(ctx: ExecContext) -> float:
    s = run_experiment(
        "axpy", versions=("omp_for", "cilk_for"), threads=(4,), ctx=ctx, n=1_000_000
    )
    return version_ratio(s, "cilk_for", "omp_for", 4)


class TestCostSensitivity:
    def test_fib_finding_stable_under_steal_cost(self):
        r = cost_sensitivity("the_steal", fib_ratio, factors=(0.25, 1.0, 4.0))
        assert all(v > 1.0 for v in r.metric_values), "cilk stays ahead"
        assert r.stable_within(1.5)

    def test_spawn_cost_moves_the_metric(self):
        r = cost_sensitivity("omp_task_spawn", fib_ratio, factors=(0.25, 1.0, 4.0))
        assert r.metric_values[0] < r.metric_values[-1]

    def test_unknown_cost_rejected(self):
        with pytest.raises(AttributeError):
            cost_sensitivity("warp_cost", fib_ratio)

    def test_base_value_recorded(self):
        ctx = ExecContext()
        r = cost_sensitivity("the_steal", lambda c: 1.0, factors=(1.0,), ctx=ctx)
        assert r.base_value == ctx.costs.the_steal

    def test_unread_cost_reports_unreached(self):
        r = cost_sensitivity("lock_acquire", fib_ratio, factors=(0.25, 1.0, 4.0))
        assert r.unreached
        assert r.spread() == 1.0
        assert not r.stable_within(2.0)
        assert "unreached" in render_sensitivity([r])

    def test_tbb_spawn_reaches_uts_tbb_task(self):
        from repro.extensions import uts
        from repro.runtime.run import run_program

        def uts_time(ctx):
            return run_program(uts.program("tbb_task", machine=ctx.machine, max_nodes=5000),
                               8, ctx).time

        r = cost_sensitivity("tbb_spawn", uts_time, factors=(0.25, 1.0, 4.0))
        assert not r.unreached
        assert r.spread() > 1.0

    def test_one_factor_is_not_unreached(self):
        r = cost_sensitivity("the_steal", lambda c: 1.0, factors=(1.0,))
        assert not r.unreached and r.stable_within(1.0)


class TestMachineSensitivity:
    def test_bandwidth_drives_axpy_gap(self):
        r = machine_sensitivity(
            "core_bandwidth", axpy_gap, factors=(0.5, 1.0, 2.0), metric_name="axpy gap"
        )
        assert len(r.metric_values) == 3
        assert all(v >= 1.0 for v in r.metric_values)

    def test_non_numeric_rejected(self):
        with pytest.raises(TypeError):
            machine_sensitivity("name", axpy_gap)

    def test_unread_machine_parameter_reports_unreached(self):
        r = machine_sensitivity("core_bandwidth", lambda ctx: 1.0, factors=(0.5, 1.0, 2.0))
        assert r.unreached and not r.stable_within(2.0)


class TestRender:
    def test_table(self):
        r = SensitivityResult("costs.x", 1e-6, (0.5, 1.0), (1.2, 1.3), "ratio")
        text = render_sensitivity([r])
        assert "costs.x" in text and "x0.5" in text and "spread" in text

    def test_empty(self):
        assert "no sensitivity" in render_sensitivity([])

    def test_mismatched_grids_rejected(self):
        a = SensitivityResult("a", 1.0, (1.0,), (1.0,), "m")
        b = SensitivityResult("b", 1.0, (0.5, 1.0), (1.0, 1.0), "m")
        with pytest.raises(ValueError):
            render_sensitivity([a, b])

    def test_spread(self):
        r = SensitivityResult("a", 1.0, (0.5, 1.0), (1.0, 2.0), "m")
        assert r.spread() == pytest.approx(2.0)
        assert r.stable_within(2.0)
        assert not r.stable_within(1.5)

    def test_unreached_row(self):
        reached = SensitivityResult("a", 1.0, (0.5, 1.0), (1.0, 2.0), "m")
        unreached = SensitivityResult("b", 1.0, (0.5, 1.0), (1.0, 1.0), "m", unreached=True)
        lines = render_sensitivity([reached, unreached]).splitlines()
        assert lines[2].endswith("2.00") and lines[3].endswith("unreached")


class TestPlacement:
    def test_close_default(self):
        assert Machine().placement == "close"
        assert Machine().sockets_spanned(8) == 1

    def test_spread_spans_early(self):
        m = Machine(placement="spread")
        assert m.sockets_spanned(1) == 1
        assert m.sockets_spanned(2) == 2
        assert m.sockets_spanned(36) == 2

    def test_invalid_placement(self):
        with pytest.raises(ValueError):
            Machine(placement="random")

    def test_spread_gives_more_bandwidth_midrange(self):
        close = Machine(placement="close")
        spread = Machine(placement="spread")
        # at 8 threads: close is limited to one socket's controllers
        assert spread.bandwidth_per_thread(8) > close.bandwidth_per_thread(8)

    def test_spread_helps_bandwidth_bound_workload(self):
        ctx_close = ExecContext()
        ctx_spread = ExecContext(machine=Machine(placement="spread"))
        t_close = axpy_gap_time(ctx_close)
        t_spread = axpy_gap_time(ctx_spread)
        assert t_spread < t_close


def axpy_gap_time(ctx: ExecContext) -> float:
    s = run_experiment("axpy", versions=("omp_for",), threads=(8,), ctx=ctx, n=2_000_000)
    return s.time("omp_for", 8)
