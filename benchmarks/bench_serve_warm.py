"""Warm ``repro serve`` requests, timed through ``SweepClient``.

A warm request is all transport: the server answers from its store
with one probe and one write, and the client reads the reply, cuts the
event lines from its chunks and decodes them.  This benchmark starts
``repro serve`` as a subprocess on a temporary store, warms three
queries, asks each 20 times more to settle, and times each warm answer
end to end, from the request's write to the ``end`` event:

- one tier-0 cell (``axpy/omp_for`` at p=1);
- three tier-0 cells (p = 1, 2, 4);
- one traced tier-2 cell (``lud/omp_task`` at p=4), a 228 KB document.

Client and server are pinned to the first CPU (where the OS allows it),
as in a closed loop on one core: the client's transport time then adds
to the server's instead of overlapping it.  Every timed answer must be
all ``hit`` and equal, key for key and byte for byte, to the answer of
the warming query.

Run with::

    pytest benchmarks/bench_serve_warm.py --benchmark-only

pytest-benchmark's table reports each query's latency (the median is
the figure to compare); the p50 and p90 also land in
``benchmarks/out/serve_warm.txt``.
"""

import os
import subprocess
import sys
import tempfile

import pytest

from repro.serve import MatrixQuery, SweepClient

QUERIES = {
    "1-cell": MatrixQuery("axpy", versions=("omp_for",), threads=(1,),
                          params={"n": 120_000}, fidelity=0),
    "3-cell": MatrixQuery("axpy", versions=("omp_for",), threads=(1, 2, 4),
                          params={"n": 120_000}, fidelity=0),
    "traced-hit": MatrixQuery("lud", versions=("omp_task",), threads=(4,),
                              fidelity=2, trace=True),
}
ROUNDS = 300
CPU = 0
_LINES: dict[str, str] = {}


def _pin(pid: int) -> None:
    if hasattr(os, "sched_setaffinity") and CPU in os.sched_getaffinity(0):
        os.sched_setaffinity(pid, {CPU})


@pytest.fixture(scope="module")
def service():
    """A client pinned with a ``repro serve`` subprocess to one CPU, on
    a temporary store warmed by each query, and each query's cold
    answer; torn down after the module."""
    affinity = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None
    with tempfile.TemporaryDirectory() as tmp:
        env = dict(os.environ, REPRO_LEDGER_DIR=os.path.join(tmp, "ledger"))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--host", "127.0.0.1", "--port", "0",
             "--jobs", "1", "--cache-dir", os.path.join(tmp, "store")],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        )
        try:
            line = proc.stderr.readline().decode("utf-8", "replace")
            assert "listening on " in line, f"repro serve did not start: {line!r}"
            _pin(proc.pid)
            _pin(0)
            with SweepClient(line.split("listening on ", 1)[1].split()[0],
                             timeout=60) as client:
                # the cold answers, then a settling pass over the warm ones
                first = {name: _cells(client.query(q)) for name, q in QUERIES.items()}
                for _ in range(20):
                    for q in QUERIES.values():
                        _cells(client.query(q))
                yield client, first
        finally:
            if affinity is not None:
                os.sched_setaffinity(0, affinity)
            proc.terminate()
            proc.wait(timeout=20)
            proc.stderr.close()


def _cells(events):
    return {e["key"]: (e["status"], e["payload"]) for e in events if e["type"] == "cell"}


@pytest.mark.parametrize("name", list(QUERIES))
def bench_serve_warm(benchmark, service, name, save):
    client, first = service
    query = QUERIES[name]
    want = {key: ("hit", payload) for key, (_, payload) in first[name].items()}
    assert len(want) == len(query.threads)
    answers = []

    def request():
        answers.append(_cells(client.query(query)))

    benchmark.pedantic(request, rounds=ROUNDS, warmup_rounds=10, iterations=1)
    assert all(answer == want for answer in answers)
    stats = benchmark.stats.stats
    data = sorted(stats.data)
    _LINES[name] = (f"{name:>10s}: p50 {stats.median * 1e3:.3f} ms, "
                    f"p90 {data[int(0.9 * len(data))] * 1e3:.3f} ms over {len(data)} warm requests")
    save("serve_warm", "warm repro serve requests through SweepClient, one CPU\n"
         + "\n".join(_LINES[n] for n in QUERIES if n in _LINES))
