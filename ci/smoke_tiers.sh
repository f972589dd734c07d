#!/usr/bin/env bash
# Fidelity cost contract: a tier-0 analytic sweep must produce an
# estimate for every cell without running a single simulation, and per
# cell the estimate must be >= 10x cheaper than the tier-2 simulation (the benchmark asserts the per-cell ratio; the sweep comparison
# asserts the end-to-end one with CI headroom).
set -euo pipefail

# both sweeps and their metrics files live in a fresh directory, each
# sweep with its own store, so neither is served from an earlier run
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT
export WORK

python -m repro sweep axpy --fidelity 2 --cache-dir "$WORK/cache-tier2" \
  --metrics-out "$WORK/tier2.json"
python -m repro sweep axpy --fidelity 0 --cache-dir "$WORK/cache-tier0" \
  --metrics-out "$WORK/tier0.json"

python - <<'EOF'
import json
import os

work = os.environ["WORK"]
t2 = json.load(open(f"{work}/tier2.json"))
t0 = json.load(open(f"{work}/tier0.json"))
c2, c0 = t2["metrics"]["counters"], t0["metrics"]["counters"]

assert c2["simulations"] == c2["sweep_cells"] > 0, c2
assert c0["estimates"] == c0["sweep_cells"] == c2["sweep_cells"], c0
assert c0["simulations"] == 0, f"tier 0 simulated: {c0}"
assert c0["engine_events"] == 0, f"tier 0 ran the engine: {c0}"
speedup = t2["wall_seconds"] / t0["wall_seconds"]
assert speedup >= 5, (
    f"tier-0 sweep only {speedup:.1f}x cheaper "
    f"({t2['wall_seconds']:.3f}s -> {t0['wall_seconds']:.3f}s)"
)
print(f"tier-0 sweep cost ratio: {speedup:.1f}x")
EOF

echo "--- per-cell cost benchmark (asserts tier-0 >= 10x)"
python -m pytest benchmarks/bench_engine_tiers.py --benchmark-only -q
