"""Tests for the differential runtime oracle (repro.validate.differential)."""


from repro.cli import main
from repro.runtime.base import ExecContext
from repro.runtime.workstealing import StealingScheduler
from repro.validate import run_validation
from repro.validate.differential import (
    graph_runtime_matrix,
    loop_runtime_matrix,
    run_differential_matrix,
    run_registry_audit,
)

CTX = ExecContext()


class TestDifferentialMatrix:
    def test_small_matrix_is_clean(self):
        rep = run_differential_matrix(CTX, threads=(1, 2), fib_n=10)
        assert rep.ok, rep.describe()
        assert rep.checks > 1000
        assert rep.checks == 71285

    def test_matrix_covers_all_runtimes(self):
        loops = loop_runtime_matrix()
        graphs = graph_runtime_matrix()
        assert any(k.startswith("worksharing") for k in loops)
        assert any(k.startswith("workstealing") for k in loops)
        assert any(k.startswith("threadpool") for k in loops)
        assert any(k.startswith("stealing") for k in graphs)
        assert any(k.startswith("threadpool_graph") for k in graphs)


class TestRegistryAudit:
    def test_every_workload_version_is_clean(self):
        rep = run_registry_audit(CTX, threads=(1, 3))
        assert rep.ok, rep.describe()
        assert rep.checks > 500


class TestValidateCli:
    def test_validate_exits_zero_when_clean(self, capsys):
        assert main(["validate", "--programs", "2"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("OK:")

    def test_validate_exits_nonzero_on_injected_violation(self, monkeypatch, capsys):
        """Acceptance criterion: a deliberately broken invariant (an
        overlapping execution span smuggled into every traced stealing
        run) must turn the exit code non-zero."""
        real = StealingScheduler.run

        def tampered(self):
            res = real(self)
            if self.tracer is not None:
                end = max(res.time, 1.0)
                self.tracer.span(0, 0.0, end, "task", "tamper")
                self.tracer.span(0, 0.0, end / 2, "task", "tamper")
            return res

        monkeypatch.setattr(StealingScheduler, "run", tampered)
        assert main(["validate", "--programs", "0"]) == 1
        out = capsys.readouterr().out
        assert "FAILED" in out and "interval-overlap" in out

    def test_validate_seed_changes_property_programs(self):
        r0 = run_validation(seed=0, programs=1)
        r1 = run_validation(seed=99, programs=1)
        assert r0.ok and r1.ok
        # different random programs => different numbers of checks
        assert r0.checks != r1.checks


class TestCliExitCodes:
    def test_unknown_workload_is_exit_2(self, capsys):
        assert main(["figure", "nbody"]) == 2
        err = capsys.readouterr().err
        assert "nbody" in err

    def test_unknown_model_is_exit_2(self, capsys):
        assert main(["compare", "openmp", "rust-rayon"]) == 2
        err = capsys.readouterr().err
        assert "rust-rayon" in err


class TestSynthesizedWorkloadsInMatrix:
    """Synthesized apps ride the same differential oracle as the
    registry's hand-written workloads (ISSUE 8: scenario diversity)."""

    def test_registry_audit_covers_synthesized_apps(self):
        from repro.workloads.synth import generate, registered

        baseline = run_registry_audit(CTX, threads=(1, 2)).checks
        with registered(generate(0, 3)):
            rep = run_registry_audit(CTX, threads=(1, 2))
        assert rep.ok, rep.describe()
        # three extra apps x six versions x two thread counts => the
        # audit demonstrably widened
        assert rep.checks > baseline

    def test_synth_audit_feeds_run_validation(self):
        rep = run_validation(programs=0)
        assert rep.ok, rep.describe()
