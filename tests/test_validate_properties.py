"""Tests for the random-program property harness (repro.validate.properties)."""

import random


from repro.runtime.base import ExecContext
from repro.runtime.run import run_program
from repro.sim.task import LoopRegion, SerialRegion
from repro.validate.invariants import check_result
from repro.validate.properties import (
    SMALL_MACHINE,
    random_graph,
    random_program,
    random_space,
    run_property_suite,
)


class TestGenerators:
    def test_random_space_is_well_formed(self):
        rng = random.Random(7)
        for _ in range(50):
            space = random_space(rng)
            assert space.niter > 0
            assert space.total_work > 0
            assert space.total_bytes >= 0
            assert 0.0 <= space.locality <= 1.0

    def test_random_graph_is_valid_dag(self):
        rng = random.Random(11)
        for _ in range(50):
            g = random_graph(rng)
            g.validate()  # raises on structural problems
            assert g.critical_path() <= g.total_work() + 1e-18

    def test_random_program_mixes_region_types(self):
        rng = random.Random(3)
        kinds = set()
        for i in range(40):
            for region in random_program(rng, i):
                kinds.add(type(region).__name__)
        assert kinds == {"SerialRegion", "LoopRegion", "TaskRegion"}

    def test_generation_is_seed_deterministic(self):
        def fingerprint(seed):
            rng = random.Random(seed)
            out = []
            for i in range(10):
                for r in random_program(rng, i):
                    if isinstance(r, SerialRegion):
                        out.append(("s", r.work))
                    elif isinstance(r, LoopRegion):
                        out.append((r.executor, r.space.niter, r.space.total_work))
                    else:
                        out.append((r.executor, len(r.graph_for(1))))
            return out

        assert fingerprint(42) == fingerprint(42)
        assert fingerprint(42) != fingerprint(43)


class TestPropertySuite:
    def test_small_suite_is_clean(self):
        rep = run_property_suite(seed=5, programs=5)
        assert rep.ok, rep.describe()
        assert rep.checks > 200

    def test_suite_runs_on_paper_machine_too(self):
        ctx = ExecContext()
        rep = run_property_suite(seed=2, programs=3, threads=(1, 4), ctx=ctx)
        assert rep.ok, rep.describe()

    def test_random_programs_pass_run_program_validate(self):
        # the integration the benchmark conftest relies on
        ctx = ExecContext(machine=SMALL_MACHINE)
        rng = random.Random(8)
        for i in range(5):
            prog = random_program(rng, i)
            res = run_program(prog, 5, ctx, validate=True)
            assert check_result(res, ctx=ctx).ok

    def test_each_program_runs_once_traced_once_untraced(self, monkeypatch):
        import repro.runtime.run as run_mod

        real = run_mod.execute_region
        calls = []

        def counting(region, nthreads, ctx, tracer=None, faults=None):
            calls.append(tracer is not None)
            return real(region, nthreads, ctx, tracer=tracer, faults=faults)

        monkeypatch.setattr(run_mod, "execute_region", counting)
        rep = run_property_suite(seed=4, programs=3, threads=(1, 5))
        assert rep.ok, rep.describe()
        rng = random.Random(4)
        nregions = sum(len(random_program(rng, i)) for i in range(3))
        assert calls.count(True) == calls.count(False) == 2 * nregions

    def test_suite_audits_the_program_trace(self, monkeypatch):
        import repro.runtime.run as run_mod

        real = run_mod.run_stealing_graph

        def tampered(graph, nthreads, ctx, *, tracer, **kw):
            res = real(graph, nthreads, ctx, tracer=tracer, **kw)
            if tracer is not None:
                tracer.span(0, 0.0, 1e-6, "task", "x")
                tracer.span(0, 0.5e-6, 1.5e-6, "task", "x")
            return res

        monkeypatch.setattr(run_mod, "run_stealing_graph", tampered)
        rep = run_property_suite(seed=5, programs=5, threads=(2,))
        assert "interval-overlap" in {v.invariant for v in rep.violations}

    def test_oversubscribed_thread_count_is_audited(self):
        # 9 threads on an 8-core/16-context machine exercises SMT sharing
        rep = run_property_suite(seed=13, programs=3, threads=(9,))
        assert rep.ok, rep.describe()
