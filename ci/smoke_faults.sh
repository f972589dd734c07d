#!/usr/bin/env bash
# Error-handling gauntlet: an injected task failure must terminate (no
# hang), be accounted as wasted work, and drive the documented exit
# codes; the fault-injected validation battery must pass.
set -euo pipefail

timeout 120 python -m repro faults fib -m cilk \
  --inject fail:task=5 --metrics-out faults.json

python - <<'EOF'
import json

doc = json.load(open("faults.json"))
summary = doc["summary"]
assert summary["wasted_seconds"] > 0, summary
assert summary["failed_regions"] >= 1, summary
gauges = doc["metrics"]["gauges"]
assert gauges["wasted_work_seconds"] > 0, gauges
# the summary renames the metrics fold's fault counters and gauges (an
# absent one reads 0): no field may disagree with its metric
renamed = {
    "useful_seconds": ("gauges", "useful_work_seconds"),
    "wasted_seconds": ("gauges", "wasted_work_seconds"),
    "recovery_seconds": ("gauges", "recovery_seconds"),
    "faults_injected": ("counters", "faults_injected"),
    "failed_regions": ("counters", "region_failures"),
    "cancelled_regions": ("counters", "regions_cancelled"),
    "retries": ("counters", "retries"),
    "skipped_items": ("counters", "skipped_items"),
}
assert set(summary) == set(renamed), sorted(summary)
for key, (table, name) in renamed.items():
    assert summary[key] == doc["metrics"][table].get(name, 0), (key, summary[key])
print("wasted work:", summary["wasted_seconds"], "s")
EOF

echo "--- one demo per Table III row, each on an executor execute_region runs"
python - "$(python -m repro faults --list-demos)" <<'EOF'
import re
import sys

from repro.kernels import axpy, fib
from repro.runtime.base import ExecContext
from repro.runtime.run import execute_region
from repro.sim.task import LoopRegion, TaskRegion

rows = sys.argv[1].splitlines()
assert len(rows) == 11, rows
ctx = ExecContext()


def dispatched(executor):
    for region in (LoopRegion(axpy.space(ctx.machine, 64), executor),
                   TaskRegion(fib.graph(4), executor)):
        try:
            execute_region(region, 2, ctx)
            return True
        except ValueError:  # not a loop (task) executor
            pass
    return False


executors = set()
for row in rows:
    m = re.search(r"executor=(\S+)", row)
    assert m and dispatched(m.group(1)), row
    executors.add(m.group(1))
print(len(rows), "demos on", sorted(executors))
EOF

echo "--- strict mode surfaces the failure as exit 1"
if python -m repro faults fib -m cilk --inject fail:task=5 --strict; then
  echo "expected exit 1" >&2; exit 1
fi

echo "--- a retry policy recovers the strict run"
python -m repro faults fib -m cilk \
  --inject fail:task=5,attempts=1 --retries 1 --backoff 1e-6 --strict

echo "--- unknown fault spec / model name exit 2"
rc=0; python -m repro faults fib -m cilk --inject explode:x=1 || rc=$?
test "$rc" -eq 2 || { echo "expected exit 2, got $rc" >&2; exit 1; }
rc=0; python -m repro validate --programs 1 --inject explode:x=1 || rc=$?
test "$rc" -eq 2 || { echo "expected exit 2, got $rc" >&2; exit 1; }
rc=0; python -m repro validate --programs 1 --model corba || rc=$?
test "$rc" -eq 2 || { echo "expected exit 2 for unknown model, got $rc" >&2; exit 1; }

echo "--- fault-injected validation battery"
timeout 600 python -m repro validate --inject fail:task=1
