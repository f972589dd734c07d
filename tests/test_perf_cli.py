"""Tests for the ``repro perf`` CLI and the automatic ledger appends.

Exit-code contract: 0 success / within tolerance, 1 regression past
tolerance, 2 bad input (missing baseline, empty ledger, telemetry
disabled for a measurement run).
"""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main
from repro.perf import Ledger, write_baseline
from repro.perf.ledger import LEDGER_DIR_ENV
from repro.perf.spans import PERF_OFF_ENV


@pytest.fixture
def ledger_dir(tmp_path, monkeypatch):
    """Point every command in the test at a scratch ledger."""
    root = tmp_path / "ledger"
    monkeypatch.setenv(LEDGER_DIR_ENV, str(root))
    monkeypatch.delenv(PERF_OFF_ENV, raising=False)
    return root


def _seed_ledger(args=()):
    """One real sweep through the CLI so the ledger has a record."""
    rc = main(
        ["sweep", "axpy", "--threads", "1", "2", "--no-cache", "-q", *args]
    )
    assert rc == 0


class TestParser:
    def test_perf_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["perf"])

    def test_compare_requires_baseline(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["perf", "compare"])

    def test_record_args(self):
        args = build_parser().parse_args(
            ["perf", "record", "axpy", "--repeat", "3", "--update-baseline"]
        )
        assert args.perf_command == "record"
        assert args.repeat == 3 and args.update_baseline


class TestSweepLedgerAppend:
    def test_sweep_appends_record_and_trajectory(self, ledger_dir, capsys):
        _seed_ledger()
        capsys.readouterr()
        ledger = Ledger(ledger_dir)
        rec = ledger.last(kind="sweep", name="sweep:axpy")
        assert rec is not None
        assert rec["wall_seconds"] > 0
        assert rec["extra"]["cache"] == "off"
        assert rec["extra"]["simulations"] == 18

    def test_sweep_leaves_only_the_ledger(self, ledger_dir, capsys):
        """The ledger is the one run history: a sweep writes no other
        file (no per-subject copy of its record) beside it."""
        _seed_ledger()
        _seed_ledger()
        capsys.readouterr()
        assert [p.name for p in ledger_dir.iterdir()] == ["ledger.jsonl"]
        assert len(Ledger(ledger_dir).records(name="sweep:axpy")) == 2

    def test_sweep_perf_off_appends_nothing(self, ledger_dir, monkeypatch, capsys):
        monkeypatch.setenv(PERF_OFF_ENV, "1")
        _seed_ledger()
        capsys.readouterr()
        assert not ledger_dir.exists()


class TestPerfReport:
    def test_report_from_ledger(self, ledger_dir, capsys):
        _seed_ledger()
        capsys.readouterr()
        assert main(["perf", "report"]) == 0
        out = capsys.readouterr().out
        assert "host-cost attribution" in out
        assert "simulate" in out

    def test_report_empty_ledger_exits_2(self, ledger_dir, capsys):
        assert main(["perf", "report"]) == 2
        assert "no matching ledger record" in capsys.readouterr().err

    def test_report_from_metrics_file(self, ledger_dir, tmp_path, capsys):
        out_json = tmp_path / "metrics.json"
        _seed_ledger(["--metrics-out", str(out_json)])
        capsys.readouterr()
        doc = json.loads(out_json.read_text())
        assert doc["host"]["wall_seconds"] > 0  # satellite: host cost in --metrics-out
        assert main(["perf", "report", "--input", str(out_json)]) == 0
        assert "host-cost attribution" in capsys.readouterr().out


class TestPerfLedgerCommand:
    def test_ledger_tail(self, ledger_dir, capsys):
        _seed_ledger()
        capsys.readouterr()
        assert main(["perf", "ledger"]) == 0
        out = capsys.readouterr().out
        assert "sweep:axpy" in out and "wall=" in out

    def test_ledger_json(self, ledger_dir, capsys):
        _seed_ledger()
        capsys.readouterr()
        assert main(["perf", "ledger", "--json", "--tail", "1"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["name"] == "sweep:axpy"

    def test_ledger_empty_exits_2(self, ledger_dir, capsys):
        assert main(["perf", "ledger"]) == 2
        assert "empty" in capsys.readouterr().err


class TestPerfCompare:
    def test_missing_baseline_exits_2(self, ledger_dir, capsys):
        assert main(["perf", "compare", "--baseline", "no-such-baseline"]) == 2
        assert "no baseline" in capsys.readouterr().err

    def test_within_tolerance_exits_0(self, ledger_dir, tmp_path, capsys):
        _seed_ledger()
        capsys.readouterr()
        rec = Ledger(ledger_dir).last(name="sweep:axpy")
        base = write_baseline(
            "sweep:axpy",
            {"wall_seconds": rec["wall_seconds"], "cpu_seconds": rec["cpu_seconds"]},
            root=tmp_path / "baselines", meta={"subject": "sweep:axpy"},
        )
        assert main(["perf", "compare", "--baseline", str(base)]) == 0
        assert "within tolerance" in capsys.readouterr().out

    def test_2x_slowdown_exits_1_and_warn_only_0(self, ledger_dir, tmp_path, capsys):
        _seed_ledger()
        capsys.readouterr()
        rec = Ledger(ledger_dir).last(name="sweep:axpy")
        base = write_baseline(
            "sweep:axpy",
            {"wall_seconds": rec["wall_seconds"] / 2.5},  # current is 2.5x over
            root=tmp_path / "baselines", meta={"subject": "sweep:axpy"},
        )
        argv = ["perf", "compare", "--baseline", str(base), "--tolerance", "0.5"]
        assert main(argv) == 1
        assert "REGRESSION" in capsys.readouterr().out
        assert main([*argv, "--warn-only"]) == 0

    def test_no_matching_record_exits_2(self, ledger_dir, tmp_path, capsys):
        base = write_baseline(
            "sweep:nope", {"wall_seconds": 1.0},
            root=tmp_path / "baselines", meta={"subject": "sweep:nope"},
        )
        assert main(["perf", "compare", "--baseline", str(base)]) == 2
        assert "no ledger record" in capsys.readouterr().err


class TestPerfRecord:
    def test_record_updates_baseline(self, ledger_dir, tmp_path, capsys):
        bdir = tmp_path / "baselines"
        rc = main(
            ["perf", "record", "axpy", "--threads", "1", "2", "--repeat", "2",
             "--update-baseline", "--baseline-dir", str(bdir)]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "repeat 0:" in out and "repeat 1:" in out
        doc = json.loads((bdir / "sweep_axpy.json").read_text())
        assert doc["meta"]["subject"] == "sweep:axpy"
        walls = [
            r["wall_seconds"]
            for r in Ledger(ledger_dir).records(kind="record", name="sweep:axpy")
        ]
        assert len(walls) == 2
        # baseline takes the best repeat
        assert doc["metrics"]["wall_seconds"] == pytest.approx(min(walls), abs=1e-6)

    def test_record_with_perf_off_exits_2(self, ledger_dir, monkeypatch, capsys):
        monkeypatch.setenv(PERF_OFF_ENV, "1")
        assert main(["perf", "record", "axpy"]) == 2
        assert "REPRO_PERF_OFF" in capsys.readouterr().err


class TestFaultsValidateAppend:
    def test_faults_appends_record(self, ledger_dir, capsys):
        assert main(["faults", "axpy", "--model", "omp_for"]) == 0
        capsys.readouterr()
        rec = Ledger(ledger_dir).last(kind="faults")
        assert rec is not None
        assert rec["name"] == "faults:axpy:omp_for"
        assert rec["extra"]["inject"] == "fail:task=1"

    def test_validate_appends_record(self, ledger_dir, capsys):
        assert main(["validate", "--programs", "2"]) == 0
        capsys.readouterr()
        rec = Ledger(ledger_dir).last(kind="validate")
        assert rec is not None
        assert rec["extra"]["checks"] > 0
        assert rec["spans"]["validate.differential"]["count"] == 1
