#!/usr/bin/env bash
# Bit-identity contract: every registry cell at p in {1,3,16,36}, at
# fidelity 0 and 2, a traced p3 pass and the fault, timeout and degrade
# passes at p in {1,4} (1410 cells), plus the graphs pass over the task
# graphs the registry does not reach (138 runs) and the extensions pass
# (three synthesized apps at fidelity 0 and 2, the composability study,
# the overhead table and the task-runtime comparison: 78 digests), 1626
# digests in all, must hash to the digests committed in
# benchmarks/baselines/cell_digests.json.  A
# behaviour-preserving change (an optimisation, a refactor) keeps all of
# them; a change meant to move results regenerates the file with
# `python benchmarks/cell_digests.py --write` and says why.
#
# Then one untraced pass of each perfbench phase (sim, est, serve) must
# reproduce the benchmark's committed outputs (perfbench/reference.json)
# with no failed operation.  The passes only read perfbench/; their
# stores, ledgers and span files go to a throwaway directory.
set -euo pipefail

timeout 600 python benchmarks/cell_digests.py

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT
for phase in sim est serve; do
  REPRO_LEDGER_DIR="$WORK/ledger" timeout 300 \
    python perfbench/phases.py "$phase" --seed 1 --trace 0 --work "$WORK" > "$WORK/$phase.out"
  python - "$WORK/$phase.out" <<'EOF'
import json
import sys

with open(sys.argv[1]) as f:
    doc = json.loads(f.read().splitlines()[-1])
print(f"perfbench {doc['phase']}: {doc['attempted']} attempted, {doc['failed']} failed")
for line in doc["failures"]:
    print("  " + line)
sys.exit(1 if doc["failed"] else 0)
EOF
done
