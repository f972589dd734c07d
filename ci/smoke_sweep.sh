#!/usr/bin/env bash
# Cache effectiveness: the same sweep run twice must be served entirely
# from the content-addressed cache the second time (zero simulations)
# and be dramatically faster.  A third, serial cold run into its own
# cache must count the same tasks, steals and events as the pooled one:
# in-process and pool-worker cells go through the same cell runner.  The
# two stores must hold the same keys with byte-identical entry files:
# one worker entry point, one entry encoding.
set -euo pipefail

python -m repro sweep axpy --jobs 2 --cache-dir .sweep-cache \
  --metrics-out cold.json
python -m repro sweep axpy --jobs 2 --cache-dir .sweep-cache \
  --metrics-out warm.json
python -m repro sweep axpy --jobs 1 --cache-dir .sweep-cache-serial \
  --metrics-out serial.json

python - <<'EOF'
import json

from repro.sweep import ResultCache

cold = json.load(open("cold.json"))
warm = json.load(open("warm.json"))
serial = json.load(open("serial.json"))
cc, wc = cold["metrics"]["counters"], warm["metrics"]["counters"]
sc = serial["metrics"]["counters"]

assert cc["simulations"] == cc["sweep_cells"] > 0, cc
assert wc["simulations"] == 0, f"warm run simulated: {wc}"
assert wc["cache_hits"] == wc["sweep_cells"], wc
assert sc["simulations"] == sc["sweep_cells"] == cc["sweep_cells"], sc
for name in ("tasks", "steals", "failed_steals", "engine_events", "regions"):
    assert sc[name] == cc[name], f"{name}: jobs 1 {sc[name]} != jobs 2 {cc[name]}"
pooled, serial_store = ResultCache(".sweep-cache"), ResultCache(".sweep-cache-serial")
assert pooled.keys() == serial_store.keys() != [], (pooled.keys(), serial_store.keys())
for key in pooled.keys():
    assert (pooled.path_for(key).read_bytes()
            == serial_store.path_for(key).read_bytes()), f"entry {key} differs"
print(f"{len(pooled.keys())} entries byte-identical across --jobs 2 and --jobs 1")
speedup = cold["wall_seconds"] / warm["wall_seconds"]
assert speedup >= 5, (
    f"cache speedup only {speedup:.1f}x "
    f"({cold['wall_seconds']:.3f}s -> {warm['wall_seconds']:.3f}s)"
)
print(f"cache speedup: {speedup:.1f}x")
EOF
