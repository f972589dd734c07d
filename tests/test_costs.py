"""Tests for the runtime cost model."""


import pytest

from repro.sim.costs import CostModel


class TestDefaults:
    def test_defaults_construct(self):
        c = CostModel()
        assert c.cilk_spawn < c.omp_task_spawn, "cilk spawn must be cheaper (Cilk-5)"
        assert c.the_push < c.locked_push, "THE owner ops are lock-free"
        assert c.thread_create > c.omp_task_spawn, "OS threads are costly"

    def test_all_costs_nonnegative(self):
        c = CostModel()
        for name, value in c.__dict__.items():
            assert value >= 0, name

    def test_negative_cost_rejected(self):
        with pytest.raises(ValueError):
            CostModel(cilk_spawn=-1e-9)

    def test_nan_cost_rejected(self):
        with pytest.raises(ValueError):
            CostModel(barrier_base=float("nan"))


class TestForkBarrier:
    def test_single_thread_is_free(self):
        c = CostModel()
        assert c.fork_cost(1) == 0.0
        assert c.barrier_cost(1) == 0.0

    def test_logarithmic_growth(self):
        c = CostModel()
        assert c.fork_cost(4) == pytest.approx(c.fork_base + 2 * c.fork_per_step)
        assert c.barrier_cost(16) == pytest.approx(c.barrier_base + 4 * c.barrier_per_step)

    def test_monotone_in_threads(self):
        c = CostModel()
        costs = [c.fork_cost(p) for p in (1, 2, 4, 8, 16, 32)]
        assert costs == sorted(costs)


class TestOverrides:
    def test_with_overrides_replaces(self):
        c = CostModel().with_overrides(the_steal=5e-6)
        assert c.the_steal == 5e-6
        assert c.the_push == CostModel().the_push

    def test_with_overrides_returns_new_object(self):
        base = CostModel()
        changed = base.with_overrides(cilk_spawn=1e-9)
        assert base.cilk_spawn != changed.cilk_spawn

    def test_unknown_override_rejected(self):
        with pytest.raises(TypeError):
            CostModel().with_overrides(not_a_cost=1.0)
