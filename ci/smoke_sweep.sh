#!/usr/bin/env bash
# Cache effectiveness: the same sweep run twice must be served entirely
# from the content-addressed cache the second time (zero simulations)
# and be dramatically faster.  A third, serial cold run into its own
# cache must count the same tasks, steals and events as the pooled one:
# in-process and pool-worker cells go through the same cell runner.  The
# two stores must hold the same keys with byte-identical entry files:
# one worker entry point, one entry encoding.
set -euo pipefail

# every store and metrics file lives in a fresh directory, so the first
# sweep is cold however often the script runs in one checkout
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT
export WORK

python -m repro sweep axpy --jobs 2 --cache-dir "$WORK/sweep-cache" \
  --metrics-out "$WORK/cold.json"
python -m repro sweep axpy --jobs 2 --cache-dir "$WORK/sweep-cache" \
  --metrics-out "$WORK/warm.json"
python -m repro sweep axpy --jobs 1 --cache-dir "$WORK/sweep-cache-serial" \
  --metrics-out "$WORK/serial.json"

python - <<'EOF'
import json
import os
from pathlib import Path

from repro.sweep import ResultCache

work = os.environ["WORK"]
cold = json.load(open(f"{work}/cold.json"))
warm = json.load(open(f"{work}/warm.json"))
serial = json.load(open(f"{work}/serial.json"))
cc, wc = cold["metrics"]["counters"], warm["metrics"]["counters"]
sc = serial["metrics"]["counters"]

assert cc["simulations"] == cc["sweep_cells"] > 0, cc
assert wc["simulations"] == 0, f"warm run simulated: {wc}"
assert wc["cache_hits"] == wc["sweep_cells"], wc
assert sc["simulations"] == sc["sweep_cells"] == cc["sweep_cells"], sc
for name in ("tasks", "steals", "engine_events", "regions"):
    assert sc[name] == cc[name], f"{name}: jobs 1 {sc[name]} != jobs 2 {cc[name]}"
pooled = ResultCache(f"{work}/sweep-cache")
serial_store = ResultCache(f"{work}/sweep-cache-serial")
assert pooled.keys() == serial_store.keys() != [], (pooled.keys(), serial_store.keys())
for key in pooled.keys():
    assert (pooled.path_for(key).read_bytes()
            == serial_store.path_for(key).read_bytes()), f"entry {key} differs"
print(f"{len(pooled.keys())} entries byte-identical across --jobs 2 and --jobs 1")
# the stores live outside the checkout, beyond the CI job's scan for
# orphaned staging files, so the scan runs here
orphans = sorted(str(p) for p in Path(work).rglob("*.tmp"))
assert not orphans, f"orphaned .tmp staging files: {orphans}"
speedup = cold["wall_seconds"] / warm["wall_seconds"]
assert speedup >= 5, (
    f"cache speedup only {speedup:.1f}x "
    f"({cold['wall_seconds']:.3f}s -> {warm['wall_seconds']:.3f}s)"
)
print(f"cache speedup: {speedup:.1f}x")
EOF
