#!/usr/bin/env bash
# Host-telemetry observatory: sweeps must append ledger records with
# >= 95% of wall time attributed to named spans, and the regression
# detector must run against the committed baseline (warn-only: CI
# runners are slower and noisier than the machine that recorded
# benchmarks/baselines/).
set -euo pipefail

# hermetic ledger: the record-count assertions below assume this script
# owns every record, which holds on a fresh CI runner but not on a
# developer machine with benchmarks/out/ledger history
export REPRO_LEDGER_DIR="${REPRO_LEDGER_DIR:-$(mktemp -d)}"

# the attribution assertion needs a genuinely cold first sweep, so this
# suite owns a fresh cache directory rather than sharing .sweep-cache
CACHE_DIR=$(mktemp -d)/sweep-cache

python -m repro sweep axpy --cache-dir "$CACHE_DIR" -q
python -m repro sweep axpy --cache-dir "$CACHE_DIR" -q

python - <<'EOF'
import json
import subprocess
import sys

from repro.perf import Ledger, attribute_host

ledger = Ledger()
records = ledger.records(kind="sweep", name="sweep:axpy")
assert len(records) == 2, f"expected 2 ledger records, got {len(records)}"
cold, warm = records
assert cold["wall_seconds"] > 0 and warm["wall_seconds"] > 0
assert cold["env"]["python"], cold["env"]
report = attribute_host(cold)
print(report.describe())
assert report.coverage >= 0.95, f"attribution {report.coverage:.1%} < 95%"
# the ledger is the one run history: nothing else lands beside it
assert [p.name for p in ledger.root.iterdir()] == ["ledger.jsonl"], \
    sorted(p.name for p in ledger.root.iterdir())
listed = subprocess.run(
    [sys.executable, "-m", "repro", "perf", "ledger", "--name", "sweep:axpy",
     "--json"],
    capture_output=True, text=True, check=True,
).stdout.splitlines()
assert [json.loads(line)["ts"] for line in listed] == [r["ts"] for r in records], \
    listed
EOF

echo "--- compare against the committed baselines (warn-only)"
# a compare reads the latest ledger record of its baseline's subject, and
# the baselines were recorded uncached, so each compare follows an
# uncached `perf record` run over the baseline's thread list (the sweeps
# above end with a fully cached one)
python -m repro perf record axpy --threads 1 2 4 8 16 32 36
python -m repro perf compare --baseline sweep_axpy --tolerance 3.0 --warn-only
# fib at p16 and p36: the work-stealing event loop and the HPX graph walk
python -m repro perf record fib --threads 16 36
python -m repro perf compare --baseline sweep_fib --tolerance 3.0 --warn-only
# bfs at p8 and p16: the event loop on byte-moving tasks
python -m repro perf record bfs --threads 8 16
python -m repro perf compare --baseline sweep_bfs --tolerance 3.0 --warn-only

echo "--- attribution + ledger tail smoke"
python -m repro perf report --name sweep:axpy
python -m repro perf ledger --tail 5

echo "--- telemetry-off runs stay bit-identical"
python - <<'EOF'
import os, subprocess, json, sys

def run(env_extra):
    env = dict(os.environ, **env_extra)
    subprocess.run(
        [sys.executable, "-m", "repro", "sweep", "axpy",
         "--threads", "1", "4", "--no-cache", "-q",
         "--metrics-out", "mo.json"],
        check=True, env=env,
    )
    doc = json.load(open("mo.json"))
    doc.pop("host", None)
    doc.pop("wall_seconds", None)
    return doc

on = run({})
off = run({"REPRO_PERF_OFF": "1"})
assert on == off, "telemetry changed the sweep accounting"
print("bit-identical with REPRO_PERF_OFF=1")
EOF
