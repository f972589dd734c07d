#!/usr/bin/env bash
# Bit-identity contract: every registry cell at p in {1,3,16,36}, at
# fidelity 0 and 2, a traced p3 pass and the fault, timeout and degrade
# passes at p in {1,4} (1410 cells), plus the graphs pass over the task
# graphs the registry does not reach (138 runs; 1548 digests in all), must
# hash to the digests committed in benchmarks/baselines/cell_digests.json.  A
# behaviour-preserving change (an optimisation, a refactor) keeps all of
# them; a change meant to move results regenerates the file with
# `python benchmarks/cell_digests.py --write` and says why.
set -euo pipefail

timeout 600 python benchmarks/cell_digests.py
