#!/usr/bin/env bash
# Sweep-service contract: two identical *concurrent* queries must cost
# exactly one set of simulations (single-flight dedupe, observable via
# serve.dedup_hit / serve.cache_hit on /stats), a warm re-query must
# perform zero simulations and cost exactly one store probe and one hit
# per cell, a warm traced query must stream the very
# payload bytes its cold run streamed (and count as store hits), a
# stored entry with one flipped body byte must be re-run (not counted
# as a hit but as serve.corrupt) and rewritten to its original bytes,
# an idle connection must get a 408, the /stats latency histograms must
# be ordered (min <= p50 <= p90 <= p99 <= max), ten warm queries from one
# client must share one kept-alive connection, a SIGTERM must stop the
# server in under 2 s while that client still holds the connection idle,
# and the server must append its lifetime telemetry to the run ledger on
# shutdown.  The trap guarantees the
# background server dies with this script, pass or fail; the final
# check fails the suite if the store holds orphaned .tmp staging files.
set -euo pipefail

SERVE_URL=${SERVE_URL:-http://127.0.0.1:8765}
# a fresh store per run: a store left by an earlier run would answer the
# "cold" queries below from its entries
STORE_DIR=$(mktemp -d)

cleanup() {
  if [ -f serve.pid ] && kill -0 "$(cat serve.pid)" 2> /dev/null; then
    echo "--- cleanup: killing orphaned server $(cat serve.pid)" >&2
    kill -TERM "$(cat serve.pid)" 2> /dev/null || true
  fi
  rm -rf "$STORE_DIR"
}
trap cleanup EXIT

python -m repro serve --port "${SERVE_URL##*:}" --cache-dir "$STORE_DIR" -j 2 \
  2> serve.log &
echo $! > serve.pid
for _ in $(seq 1 50); do
  curl -sf "$SERVE_URL/healthz" > /dev/null && break
  sleep 0.2
done
curl -sf "$SERVE_URL/healthz"

echo "--- two identical concurrent queries"
python -m repro sweep axpy --server "$SERVE_URL" --metrics-out q1.json -q &
Q1=$!
python -m repro sweep axpy --server "$SERVE_URL" --metrics-out q2.json -q
wait "$Q1"

echo "--- single-flight accounting via /stats"
curl -s "$SERVE_URL/stats" > stats.json
python - <<'EOF'
import json

c = json.load(open("stats.json"))["counters"]
cells = json.load(open("q1.json"))["metrics"]["counters"]["sweep_cells"]
sims = c.get("serve.simulations", 0)
joins = c.get("serve.dedup_hit", 0)
hits = c.get("serve.cache_hit", 0)
assert c["serve.request"] == 2, c
# one set of simulations for two requests: every unique cell was
# simulated exactly once; the second request's cells were joins
# (in-flight) or store hits (already landed)
assert sims == cells, f"expected {cells} simulations, got {sims}: {c}"
assert joins + hits == cells, c
print(f"cells={cells} simulations={sims} dedup_joins={joins} store_hits={hits}")
EOF

echo "--- warm re-query performs zero simulations, one probe and one hit per cell"
python -m repro sweep axpy --server "$SERVE_URL" --metrics-out warm.json -q
curl -sf "$SERVE_URL/stats" > stats-warm.json
python - <<'EOF'
import json

wc = json.load(open("warm.json"))["metrics"]["counters"]
assert wc["simulations"] == 0, f"warm re-query simulated: {wc}"
assert wc["cache_hits"] == wc["sweep_cells"] > 0, wc
before, after = json.load(open("stats.json")), json.load(open("stats-warm.json"))

def rise(pick):
    return pick(after) - pick(before)

probes = rise(lambda s: s["observations"]["serve.probe_seconds"]["count"])
hits = rise(lambda s: s["counters"].get("serve.cache_hit", 0))
assert probes == hits == wc["sweep_cells"], (
    f"{wc['sweep_cells']} warm cells cost {probes} probes and {hits} hits")
print(f"warm re-query served entirely from the store: {probes} probes, {hits} hits")
EOF

echo "--- a warm traced query streams the cold run's payload bytes"
TRACED='{"workload":"axpy","versions":["omp_for","omp_task"],"threads":[2,4],"trace":true}'
curl -sf -X POST --data "$TRACED" "$SERVE_URL/sweep" > traced-cold.ndjson
curl -sf "$SERVE_URL/stats" > stats.json
curl -sf -X POST --data "$TRACED" "$SERVE_URL/sweep" > traced-warm.ndjson
curl -sf "$SERVE_URL/stats" > stats-warm.json
python - <<'EOF'
import json

def cells(path):
    """{key: (status, payload bytes)} of every cell line, as streamed."""
    out = {}
    for line in open(path, "rb"):
        event = json.loads(line)
        if event["type"] == "cell":
            # the payload is the event's last key: its bytes run from
            # after the key to the closing brace
            payload = line[line.index(b',"payload":') + 11:].rstrip(b"\n")[:-1]
            assert json.loads(payload) == event["payload"]
            out[event["key"]] = (event["status"], payload)
    return out

cold, warm = cells("traced-cold.ndjson"), cells("traced-warm.ndjson")
assert len(cold) == 4 and cold.keys() == warm.keys(), (cold.keys(), warm.keys())
assert {s for s, _ in cold.values()} == {"run"}, cold
assert {s for s, _ in warm.values()} == {"hit"}, warm
for key in cold:
    assert cold[key][1] == warm[key][1], f"payload bytes of {key} differ"
before = json.load(open("stats.json"))["counters"]
after = json.load(open("stats-warm.json"))["counters"]
hits = after.get("serve.cache_hit", 0) - before.get("serve.cache_hit", 0)
assert hits == len(warm), f"/stats counted {hits} hits for {len(warm)} cells"
print(f"warm traced query: {hits} hits, payload bytes identical to the cold run")
EOF

echo "--- a flipped body byte is a miss: re-run and rewritten"
python - "$SERVE_URL" "$STORE_DIR" <<'EOF'
import sys

from repro.serve.client import SweepClient
from repro.serve.protocol import MatrixQuery
from repro.sweep import ResultCache

url, store = sys.argv[1], ResultCache(sys.argv[2])
query = MatrixQuery.from_dict(
    {"workload": "axpy", "versions": ["omp_for"], "threads": [2, 4], "trace": True})
client = SweepClient(url)
# read the whole answer: its later cells' hits are counted as their
# probes land, which may be after the first cell streamed
key = next(e["key"] for e in list(client.query(query)) if e["type"] == "cell")
path = store.path_for(key)
entry = path.read_bytes()
# one digit of the result's time, in place: same length, still JSON
at = entry.index(b'"time":') + len(b'"time":')
path.write_bytes(entry[:at] + (b"7" if entry[at:at + 1] != b"7" else b"8") + entry[at + 1:])
before = client.stats()["counters"]
status = {e["key"]: e["status"] for e in client.query(query) if e["type"] == "cell"}
after = client.stats()["counters"]
hits = after.get("serve.cache_hit", 0) - before.get("serve.cache_hit", 0)
corrupt = after.get("serve.corrupt", 0) - before.get("serve.corrupt", 0)
assert status[key] == "run", status
assert hits == len(status) - 1, f"/stats counted {hits} hits for {len(status) - 1} intact cells"
assert corrupt == 1, f"/stats counted {corrupt} refused entries for one flipped entry"
assert path.read_bytes() == entry, "the re-run did not rewrite the original bytes"
print(f"flipped entry re-run and rewritten ({len(entry)} bytes); {hits} intact hit(s)")
EOF

echo "--- the store root holds only shard directories"
python - "$STORE_DIR" <<'EOF'
import pathlib
import string
import sys

def is_shard(p):
    return p.is_dir() and len(p.name) == 2 and set(p.name) <= set(string.hexdigits)

stray = sorted(p.name for p in pathlib.Path(sys.argv[1]).iterdir() if not is_shard(p))
assert not stray, f"store root holds more than shard directories: {stray}"
print("store root holds only shard directories")
EOF

echo "--- an idle connection gets a 408 once the read deadline passes"
python - "$SERVE_URL" <<'EOF'
import http.client
import socket
import sys
import urllib.parse

url = urllib.parse.urlsplit(sys.argv[1])
with socket.create_connection((url.hostname, url.port), timeout=60) as sock:
    # send nothing; read the framed answer (pool workers hold the fd open)
    resp = http.client.HTTPResponse(sock)
    resp.begin()
    body = resp.read()
assert resp.status == 408, (resp.status, body)
print("idle connection answered:", resp.status, resp.reason)
EOF

echo "--- /stats latency histograms are consistent"
curl -sf "$SERVE_URL/stats" > stats.json
python - <<'EOF'
import json

stats = json.load(open("stats.json"))
counters, observed = stats["counters"], stats["observations"]
assert counters.get("serve.read_timeout") == 1, counters
request = observed["serve.request_seconds"]
assert request["count"] == counters["serve.request"], (request, counters)
for name in ("serve.request_seconds", "serve.probe_seconds",
             "serve.queue_seconds", "serve.run_seconds", "serve.store_seconds"):
    h = observed.get(name)
    if h is None or not h["count"]:
        continue
    assert h["min"] <= h["p50"] <= h["p90"] <= h["p99"] <= h["max"], (name, h)
    print(f"{name}: n={h['count']} p50={h['p50'] * 1e3:.3f}ms "
          f"p90={h['p90'] * 1e3:.3f}ms p99={h['p99'] * 1e3:.3f}ms")
EOF

echo "--- ten warm queries share one connection; SIGTERM does not wait for it"
python - "$SERVE_URL" "$(cat serve.pid)" serve.log <<'EOF'
import os
import signal
import sys
import time

from repro.serve.client import SweepClient
from repro.serve.protocol import MatrixQuery

url, pid, log = sys.argv[1], int(sys.argv[2]), sys.argv[3]
query = MatrixQuery.from_dict({"workload": "axpy", "versions": ["omp_for", "cxx_thread"],
                               "threads": [1, 4], "fidelity": 0})
with SweepClient(url) as warmup:
    list(warmup.query(query))
    before = warmup.stats()["counters"]["serve.connection"]
client = SweepClient(url)
statuses = [e["status"] for _ in range(10) for e in client.query(query)
            if e["type"] == "cell"]
after = client.stats()["counters"]["serve.connection"]
assert statuses == ["hit"] * 40, statuses
assert after - before == 1, f"10 queries and /stats opened {after - before} connections"
print(f"10 warm queries: {len(statuses)} hits over one connection")

# stop the server while this client's connection sits idle: shutdown
# hangs it up instead of waiting out the server's read deadline
t0 = time.monotonic()
os.kill(pid, signal.SIGTERM)
while "repro serve: stopped" not in open(log, encoding="utf-8").read():
    assert time.monotonic() - t0 < 10, "the server did not stop within 10 s"
    time.sleep(0.02)
elapsed = time.monotonic() - t0
assert elapsed < 2.0, f"shutdown took {elapsed:.2f} s with an idle kept-alive connection"
print(f"SIGTERM to stopped: {elapsed:.2f} s with an idle kept-alive connection")
EOF

echo "--- the service stopped (and appended its ledger record)"
for _ in $(seq 1 50); do
  kill -0 "$(cat serve.pid)" 2> /dev/null || break
  sleep 0.2
done
cat serve.log
python - <<'EOF'
from repro.perf import Ledger

records = Ledger().records(kind="serve")
assert records, "server wrote no ledger record on shutdown"
rec = records[-1]
assert rec["counters"].get("serve.request", 0) >= 3, rec["counters"]
assert rec["extra"]["entries"] > 0, rec["extra"]
print("serve ledger record:", rec["name"], rec["extra"])
EOF

echo "--- no orphaned staging files may survive shutdown"
orphans=$(find "$STORE_DIR" -name '*.tmp' 2> /dev/null || true)
if [ -n "$orphans" ]; then
  echo "orphaned .tmp staging files left in $STORE_DIR:" >&2
  echo "$orphans" >&2
  exit 1
fi
echo "store is clean: no .tmp staging files"
