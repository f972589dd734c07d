"""One benchmark pass, run in a fresh interpreter.

``python3 perfbench/phases.py {sim,est,serve} --seed N --trace {0,1}``
runs one pass of one phase and prints one JSON document as its last
stdout line: the pass's samples, its exact counts, its correctness
verdicts and, with ``--trace 1``, its per-layer figures.

Every phase drives the package only through public entry points
(``run_sweep``, ``WorkloadSpec.build``, ``estimate_program``,
``execute_region``, ``ResultCache``, ``repro.sweep.codec`` and
``SweepClient``).  ``ready`` is the monotonic clock reading just before
the first timed operation, so the parent can compute set-up time from
the moment it spawned this process.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import pathlib
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable, Optional

import arith
import hostprobe
import mixes

HERE = pathlib.Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"

#: Host-time layers a region's executor name belongs to.
FAMILIES = {
    "stealing": "stealing", "stealing_loop": "stealing",
    "worksharing": "worksharing",
    "threadpool": "threadpool", "threadpool_graph": "threadpool",
    "charm_loop": "amt", "hpx_loop": "amt", "mpi_loop": "amt",
    "charm_graph": "amt", "hpx_graph": "amt", "mpi_graph": "amt",
    "offload": "offload",
}
RUNTIME_FAMILIES = ("stealing", "worksharing", "threadpool", "amt", "offload", "serial")
#: Host seconds of served requests between two host probes.
PROBE_EVERY = 0.2


def family(region) -> str:
    return FAMILIES.get(getattr(region, "executor", ""), "serial")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def load_reference() -> dict[str, Any]:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


class Spans:
    """In-memory span recorder: name, start, end, parent span and cell id.

    Each thread keeps its own stack, so spans recorded by server threads
    never nest under the client's.  ``span`` yields a dict whose entries
    are stored with the row (counts measured at the same boundary).
    """

    def __init__(self) -> None:
        self.rows: list[dict[str, Any]] = []
        self._ids = itertools.count()
        self._local = threading.local()

    @contextmanager
    def span(self, name: str, cell: Optional[str] = None):
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else None
        if cell is None and parent is not None:
            cell = parent[1]
        sid = next(self._ids)
        info: dict[str, Any] = {}
        stack.append((sid, cell))
        start = perf_counter()
        try:
            yield info
        finally:
            end = perf_counter()
            stack.pop()
            self.rows.append({"id": sid, "name": name, "start": start, "end": end,
                              "parent": None if parent is None else parent[0],
                              "cell": cell, **info})

    def wrap(self, name: str, fn: Callable) -> Callable:
        def timed(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return timed

    def write(self, path: pathlib.Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for row in sorted(self.rows, key=lambda r: r["start"]):
                fh.write(json.dumps(row, separators=(",", ":")) + "\n")


@contextmanager
def patched(*replacements: tuple[Any, str, Any]):
    """Set attributes for the ``with`` block and restore them after it."""
    saved = [(obj, name, getattr(obj, name)) for obj, name, _ in replacements]
    for obj, name, value in replacements:
        setattr(obj, name, value)
    try:
        yield
    finally:
        for obj, name, value in saved:
            setattr(obj, name, value)


def timed_graph_for(spans: Spans) -> tuple[Any, str, Any]:
    """A ``TaskRegion.graph_for`` that records a ``workloads.graph`` span."""
    from repro.sim.task import TaskRegion

    original = TaskRegion.graph_for

    def graph_for(self, nthreads):
        with spans.span("workloads.graph") as info:
            graph = original(self, nthreads)
            info["tasks"] = len(graph.tasks)
        return graph

    return TaskRegion, "graph_for", graph_for


def workloads_layer(spans: Spans) -> dict[str, float]:
    totals = arith.layer_self_seconds(spans.rows)
    return {
        "workloads.build_ms": totals.get("workloads.build", 0.0) * 1e3,
        "workloads.graph_ms": totals.get("workloads.graph", 0.0) * 1e3,
        "workloads.tasks": sum(r.get("tasks", 0) for r in spans.rows
                               if r["name"] == "workloads.graph"),
    }


def runtime_layer(spans: Spans) -> dict[str, float]:
    """Runtime self time per executor family, with the task and event
    counts the parent turns into µs per task and per event."""
    totals = arith.layer_self_seconds(spans.rows)
    rows = [r for r in spans.rows if r["name"].startswith("runtime.")]
    out = {f"runtime.{f}_ms": totals.get(f"runtime.{f}", 0.0) * 1e3
           for f in RUNTIME_FAMILIES}
    out["runtime.tasks"] = sum(r.get("tasks", 0) for r in rows)
    out["sim.engine.events"] = sum(r.get("events", 0) for r in rows)
    out["runtime.stealing_events"] = sum(
        r.get("events", 0) for r in rows if r["name"] == "runtime.stealing")
    return out


# ---------------------------------------------------------------------------
# sim-cells
# ---------------------------------------------------------------------------
def sim_pass(args) -> dict[str, Any]:
    from repro.runtime.base import ExecContext
    from repro.sweep import codec, run_sweep
    from repro.validate.invariants import check_result

    ref = load_reference()["sim"]
    ctx = ExecContext()
    spans = Spans() if args.trace else None
    graph_patch = timed_graph_for(spans) if spans is not None else None
    out = new_result("sim")
    out["ready"] = time.monotonic()
    out["setup_probe"] = hostprobe.measure()
    untraced = traced = 0.0
    before = out["setup_probe"]
    # rounds of the list until the next would end after ``args.until``
    # (one in the traced pass); the first round also audits every cell,
    # outside the timed calls, while later rounds only check digests
    rnd, last = 0, 0.0
    while rnd == 0 or (spans is None and time.monotonic() + last <= args.until):
        t_round = time.monotonic()
        untraced = 0.0
        for w, v, p in mixes.SIM_CELLS:
            label = mixes.cell_label(w, v, p)
            t0 = perf_counter()
            sweep = run_sweep(w, versions=[v], threads=[p], cache=None)
            dt = perf_counter() - t0
            untraced += dt
            after = hostprobe.measure()
            out["samples"].setdefault(label, []).append(dt * hostprobe.scale(before, after))
            before = after
            out["attempted"] += 1
            res = sweep.results.get((v, p))
            if res is None:
                fail(out, label, f"cell error: {sweep.errors.get((v, p))}")
                continue
            if arith.doc_digest(codec.result_to_dict(res)) != ref["digests"].get(label):
                fail(out, label, "digest differs from the reference")
            if rnd > 0:
                continue
            if not check_result(res, ctx=ctx).ok:
                fail(out, label, "invariant audit failed")
            if spans is not None:
                traced += replay_cell(spans, graph_patch, ctx, out, (w, v, p), res)
            out["counts"]["cells"] += 1
            out["counts"]["sim.engine.events"] += sum(r.meta.get("events", 0)
                                                      for r in res.regions)
            out["counts"]["sim.tasks"] += res.total_tasks
            out["tasks"][label] = res.total_tasks
        last = time.monotonic() - t_round
        rnd += 1
    out["wall"] = untraced
    if spans is not None:
        out["layers"] = {**workloads_layer(spans), **runtime_layer(spans)}
        out["counts"]["workloads.tasks"] = out["layers"]["workloads.tasks"]
        out["traced_wall"] = traced
        spans.write(args.spans)
    return out


def replay_cell(spans: Spans, graph_patch, ctx, out: dict[str, Any], cell, res) -> float:
    """Replay one cell region by region through ``execute_region``, timed
    layer by layer; returns the replay's host seconds."""
    from repro.core.registry import get_workload
    from repro.runtime.run import execute_region

    w, v, p = cell
    label = mixes.cell_label(w, v, p)
    t0 = perf_counter()
    with patched(graph_patch), spans.span("cell", cell=label):
        with spans.span("workloads.build"):
            program = get_workload(w).build(v, ctx.machine)
        total = 0.0
        if program.meta.get("pool_setup"):
            total += p * (ctx.costs.thread_create + ctx.costs.thread_join)
        for region in program:
            with spans.span(f"runtime.{family(region)}") as info:
                rr = execute_region(region, p, ctx)
                info["tasks"] = rr.total_tasks
                info["events"] = rr.meta.get("events", 0)
            total += rr.time
    elapsed = perf_counter() - t0
    if total != res.time:
        fail(out, label, f"execute_region replay gives {total!r}, not {res.time!r}")
    return elapsed


# ---------------------------------------------------------------------------
# estimate-matrix
# ---------------------------------------------------------------------------
def est_pass(args) -> dict[str, Any]:
    from repro.core.registry import WORKLOADS
    from repro.runtime.base import ExecContext
    from repro.sweep import codec, run_sweep

    ref = load_reference()["est"]
    ctx0 = ExecContext().with_fidelity(0)
    spans = Spans() if args.trace else None
    if spans is not None:
        import repro.runtime.run as run_mod
        from repro.sim.tiers import estimate_program

        execute_region = run_mod.execute_region

        def timed_execute_region(region, nthreads, ctx, *a, **kw):
            with spans.span(f"runtime.{family(region)}") as info:
                rr = execute_region(region, nthreads, ctx, *a, **kw)
                info["tasks"] = rr.total_tasks
                info["events"] = rr.meta.get("events", 0)
            return rr

        # tier 0 delegates exact regions to execute_region, which it
        # imports from the runtime module at call time
        layer_patches = (timed_graph_for(spans),
                         (run_mod, "execute_region", timed_execute_region))
    out = new_result("est")
    out["ready"] = time.monotonic()
    out["setup_probe"] = hostprobe.measure()
    untraced = traced = 0.0
    for name, spec in WORKLOADS.items():
        params = mixes.MATRIX_PARAMS.get(name, {})
        t0 = perf_counter()
        sweep = run_sweep(name, threads=mixes.PAPER_THREADS, params=params,
                          fidelity=0, cache=None)
        untraced += perf_counter() - t0
        for v in spec.versions:
            for p in mixes.PAPER_THREADS:
                label = mixes.cell_label(name, v, p, 0)
                out["attempted"] += 1
                res = sweep.results.get((v, p))
                if res is None:
                    fail(out, label, f"cell error: {sweep.errors.get((v, p))}")
                    continue
                if arith.doc_digest(codec.result_to_dict(res)) != ref["digests"].get(label):
                    fail(out, label, "digest differs from the reference")
                out["counts"]["cells"] += 1
                out["counts"]["est.tasks"] += res.total_tasks
        if spans is None:
            continue
        t0 = perf_counter()
        for v in spec.versions:
            for p in mixes.PAPER_THREADS:
                label = mixes.cell_label(name, v, p, 0)
                with patched(*layer_patches), spans.span("cell", cell=label):
                    with spans.span("workloads.build"):
                        program = spec.build(v, ctx0.machine, **params)
                    with spans.span("sim.tiers.estimate"):
                        res = estimate_program(program, p, ctx0, v)
                if arith.doc_digest(codec.result_to_dict(res)) != ref["digests"].get(label):
                    fail(out, label, "traced estimate differs from the reference")
        traced += perf_counter() - t0
    out["wall"] = untraced
    if spans is not None:
        totals = arith.layer_self_seconds(spans.rows)
        ncells = sum(1 for r in spans.rows if r["name"] == "sim.tiers.estimate")
        tiers_s = totals.get("sim.tiers.estimate", 0.0)
        out["layers"] = {
            **workloads_layer(spans),
            **runtime_layer(spans),
            "sim.tiers.estimate_ms": tiers_s * 1e3,
            "sim.tiers.us_per_cell": tiers_s / ncells * 1e6 if ncells else 0.0,
        }
        out["counts"]["workloads.tasks"] = out["layers"]["workloads.tasks"]
        out["traced_wall"] = traced
        spans.write(args.spans)
    return out


# ---------------------------------------------------------------------------
# serve-mixed
# ---------------------------------------------------------------------------
def start_server(store: pathlib.Path, env: dict[str, str]):
    """Start ``repro serve`` on a free port; returns (process, url)."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--host", "127.0.0.1", "--port", "0",
         "--jobs", "1", "--cache-dir", str(store)],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
    )
    line = proc.stderr.readline().decode("utf-8", "replace")
    if "listening on " not in line:
        stop_server(proc)
        raise RuntimeError(f"repro serve did not start: {line.strip()!r}")
    url = line.split("listening on ", 1)[1].split()[0]
    return proc, url


def stop_server(proc) -> None:
    """SIGTERM the server and wait for it (its pool worker shares this
    process's group, which the parent reaps after the pass)."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=20)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=20)
    if proc.stderr is not None:
        proc.stderr.close()


def process_hwm_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def set_up_service(client, out: dict[str, Any], ref: dict[str, str]) -> None:
    """Wait for the first healthy probe, then send the warm-up query alone."""
    deadline = time.monotonic() + 30.0
    while not client.health():
        if time.monotonic() > deadline:
            raise RuntimeError("sweep service never answered its health probe")
        time.sleep(0.005)
    warmup = run_stream(client, [[mixes.WARMUP]])["records"]
    check_stream(out, warmup, ref)
    out["ready"] = time.monotonic()
    out["setup_probe"] = hostprobe.measure()


def run_stream(client, rounds, probe: bool = False) -> dict[str, Any]:
    """Send the rounds over two connections; returns per-request records.

    With ``probe``, the host is probed between rounds, while the server
    is idle, about every ``PROBE_EVERY`` seconds of requests; each record
    carries the ``scale`` that turns its round's host seconds into
    reference-host seconds.  ``scaled_wall`` sums the rounds' scaled
    times, ``wall`` their host seconds.
    """
    from concurrent.futures import ThreadPoolExecutor

    from repro.serve.protocol import MatrixQuery

    def send(q: mixes.Query) -> dict[str, Any]:
        query = MatrixQuery(workload=q.workload, versions=(q.version,),
                            threads=q.threads, fidelity=q.fidelity, trace=q.trace)
        rec: dict[str, Any] = {"query": q, "cells": [], "error": None, "ttfc": None}
        t0 = perf_counter()
        try:
            for event in client.query(query):
                if event["type"] == "cell":
                    if rec["ttfc"] is None:
                        rec["ttfc"] = perf_counter() - t0
                    rec["cells"].append(event)
        except Exception as exc:  # any failed request is counted, not raised
            rec["error"] = f"{type(exc).__name__}: {exc}"
        rec["latency"] = perf_counter() - t0
        return rec

    # (records, host seconds, index of the probe before) per round; a
    # probe follows every block of rounds lasting PROBE_EVERY seconds
    sent = []
    probes = [hostprobe.measure()] if probe else []
    block = 0.0
    with ThreadPoolExecutor(max_workers=mixes.SERVE_CONNECTIONS) as pool:
        for batch in rounds:
            t0 = perf_counter()
            batch_records = list(pool.map(send, batch))
            dt = perf_counter() - t0
            sent.append((batch_records, dt, len(probes) - 1))
            block += dt
            if probe and block >= PROBE_EVERY:
                probes.append(hostprobe.measure())
                block = 0.0
    if probe and block > 0.0:
        probes.append(hostprobe.measure())
    records = []
    wall = scaled_wall = 0.0
    for batch_records, dt, i in sent:
        scale = hostprobe.scale(probes[i], probes[i + 1]) if probe else 1.0
        for rec in batch_records:
            rec["scale"] = scale
        records.extend(batch_records)
        wall += dt
        scaled_wall += dt * scale
    return {"records": records, "wall": wall, "scaled_wall": scaled_wall}


def check_stream(out: dict[str, Any], records, ref: dict[str, str]) -> None:
    """Score every request against the reference entry documents."""
    for i, rec in enumerate(records):
        q: mixes.Query = rec["query"]
        label = f"request{i}:{q.workload}/{q.version}"
        out["attempted"] += 1
        if rec["error"] is not None:
            fail(out, label, rec["error"])
            continue
        want = q.labels()
        got = {}
        for event in rec["cells"]:
            cell = mixes.cell_label(q.workload, event["version"], event["nthreads"],
                                    q.fidelity, q.trace)
            got[cell] = event
        if sorted(got) != sorted(want):
            fail(out, label, f"answered cells {sorted(got)}, asked {want}")
            continue
        bad = [c for c, e in got.items()
               if e["status"] == "error" or arith.doc_digest(e["payload"]) != ref.get(c)]
        if bad:
            fail(out, label, f"cell documents differ from the local sweep: {bad}")
        if q.trace:
            for event in got.values():
                size = len(json.dumps(event["payload"]["result"], separators=(",", ":")))
                out["traced_bytes"].append(size)


def serve_counts(stats: dict[str, Any]) -> dict[str, int]:
    c = stats.get("counters", {})
    return {
        "requests": c.get("serve.request", 0),
        "cells": c.get("serve.cells", 0),
        "stores": c.get("serve.store", 0),
        "simulations": c.get("serve.simulations", 0),
        "estimates": c.get("serve.estimates", 0),
        "hits_or_joins": c.get("serve.cache_hit", 0) + c.get("serve.dedup_hit", 0),
    }


def serve_pass(args) -> dict[str, Any]:
    from repro.serve.client import SweepClient

    ref = load_reference()["serve"]["digests"]
    versions = {w: mixes.serve_versions(w) for w in mixes.SERVE_WORKLOADS}
    rounds = mixes.serve_stream(args.seed, versions)
    out = new_result("serve")
    out["stream_digest"] = mixes.stream_digest(rounds)
    out["expected"] = mixes.expected_serve_counts([[mixes.WARMUP]] + rounds)
    work = args.work
    store = work / "store"
    shutil.rmtree(store, ignore_errors=True)
    env = dict(os.environ, REPRO_LEDGER_DIR=str(work / "ledger"))
    proc, url = start_server(store, env)
    try:
        client = SweepClient(url, timeout=60.0)
        set_up_service(client, out, ref)
        stream = run_stream(client, rounds, probe=True)
        stats = client.stats()
        out["peak_rss_mb"] = process_hwm_mb(proc.pid)
    finally:
        stop_server(proc)
    fill_serve(out, stream, stats, ref)
    if args.trace:
        traced_serve_pass(args, rounds, ref, out)
    return out


def fill_serve(out, stream, stats, ref) -> None:
    out["wall"] = stream["wall"]
    out["scaled_wall"] = stream["scaled_wall"]
    records = stream["records"]
    # index-aligned with the stream, in reference-host seconds; a request
    # that never saw a cell is failed below and counts its whole latency
    out["samples"] = {
        "latency": [r["latency"] * r["scale"] for r in records],
        "ttfc": [(r["latency"] if r["ttfc"] is None else r["ttfc"]) * r["scale"]
                 for r in records],
    }
    check_stream(out, records, ref)
    out["counts"] = serve_counts(stats)


def traced_serve_pass(args, rounds, ref, untraced: dict[str, Any]) -> None:
    """The same stream against an in-process server, with the store, key
    and codec functions wrapped by timers."""
    import asyncio

    import repro.serve.server as server_mod
    import repro.sweep.codec as codec
    from repro.core.registry import get_workload
    from repro.runtime.base import ExecContext
    from repro.runtime.run import run_program
    from repro.serve.client import SweepClient
    from repro.sweep.cache import ResultCache

    spans = Spans()
    entry_bytes: list[int] = []
    original_put = ResultCache.put

    def put(self, key, payload):
        with spans.span("sweep.cache.put"):
            path = original_put(self, key, payload)
        entry_bytes.append(path.stat().st_size)
        return path

    timers = patched(
        (ResultCache, "get", spans.wrap("sweep.cache.get", ResultCache.get)),
        (ResultCache, "put", put),
        (server_mod, "cache_key", spans.wrap("sweep.cache.key", server_mod.cache_key)),
        (codec, "result_to_dict", spans.wrap("sweep.codec.encode", codec.result_to_dict)),
        (codec, "result_from_dict", spans.wrap("sweep.codec.decode", codec.result_from_dict)),
    )
    store = args.work / "store-traced"
    shutil.rmtree(store, ignore_errors=True)
    server = server_mod.SweepServer(ResultCache(store), jobs=1, port=0)
    loop = asyncio.new_event_loop()
    thread = threading.Thread(target=loop.run_forever, daemon=True)
    thread.start()
    traced = new_result("serve")
    traced["expected"] = untraced["expected"]
    try:
        with timers:
            asyncio.run_coroutine_threadsafe(server.start(), loop).result(timeout=30)
            client = SweepClient(server.url, timeout=60.0)
            set_up_service(client, traced, ref)
            stream = run_stream(client, rounds)
            stats = client.stats()
    finally:
        asyncio.run_coroutine_threadsafe(server.close(), loop).result(timeout=30)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=30)
        loop.close()
    fill_serve(traced, stream, stats, ref)
    untraced["attempted"] += traced["attempted"]
    untraced["failed"] += traced["failed"]
    untraced["failures"] += traced["failures"]
    untraced["traced_counts"] = traced["counts"]

    # tracer cost on the stream's traced cells, alternating untraced and traced
    ctx = ExecContext()
    plain_s, traced_s = [], []
    cells = sorted({(q.workload, q.version, q.threads[0]) for batch in rounds
                    for q in batch if q.trace})
    for w, v, p in cells:
        program = get_workload(w).build(v, ctx.machine)
        a, b = [], []
        for _ in range(3):
            t0 = perf_counter()
            run_program(program, p, ctx, v, trace=None)
            a.append(perf_counter() - t0)
            t0 = perf_counter()
            run_program(program, p, ctx, v, trace=True)
            b.append(perf_counter() - t0)
        plain_s.append(statistics.median(a))
        traced_s.append(statistics.median(b))

    def mean_of(name: str, scale: float) -> float:
        durs = [r["end"] - r["start"] for r in spans.rows if r["name"] == name]
        return statistics.fmean(durs) * scale if durs else 0.0

    obs = stats.get("observations", {}).get("serve.request_seconds", {})
    server_ms = obs.get("mean", 0.0) * 1e3
    client_ms = statistics.fmean(traced["samples"]["latency"]) * 1e3
    counters = stats.get("counters", {})
    sizes = traced["traced_bytes"]
    untraced["layers"] = {
        "sweep.cache.key_us": mean_of("sweep.cache.key", 1e6),
        "sweep.cache.get_ms": mean_of("sweep.cache.get", 1e3),
        "sweep.cache.put_ms": mean_of("sweep.cache.put", 1e3),
        "sweep.cache.entry_kb": statistics.fmean(entry_bytes) / 1024 if entry_bytes else 0.0,
        "sweep.codec.encode_ms": mean_of("sweep.codec.encode", 1e3),
        "sweep.codec.decode_ms": mean_of("sweep.codec.decode", 1e3),
        "sweep.codec.traced_mb": statistics.fmean(sizes) / 1e6 if sizes else 0.0,
        "serve.server_ms": server_ms,
        "serve.transport_ms": client_ms - server_ms,
        "serve.cache_hits": counters.get("serve.cache_hit", 0),
        "serve.stores": counters.get("serve.store", 0),
        "serve.simulations": counters.get("serve.simulations", 0),
        "serve.estimates": counters.get("serve.estimates", 0),
        "serve.dedup_joins": counters.get("serve.dedup_hit", 0),
        "obs.tracer_cost_ratio": sum(traced_s) / sum(plain_s) if plain_s else 0.0,
    }
    untraced["traced_wall"] = stream["wall"]
    spans.write(args.spans)


# ---------------------------------------------------------------------------
# plumbing
# ---------------------------------------------------------------------------
def new_result(phase: str) -> dict[str, Any]:
    counts = {"sim": {"cells": 0, "sim.engine.events": 0, "sim.tasks": 0},
              "est": {"cells": 0, "est.tasks": 0}}.get(phase, {})
    return {"phase": phase, "ready": None, "wall": 0.0, "samples": {}, "tasks": {},
            "counts": counts, "traced_bytes": [], "attempted": 0, "failed": 0,
            "failures": []}


def fail(out: dict[str, Any], label: str, why: str) -> None:
    out["failed"] += 1
    out["failures"].append(f"{label}: {why}")


PASSES = {"sim": sim_pass, "est": est_pass, "serve": serve_pass}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("phase", choices=sorted(PASSES))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work", type=pathlib.Path, required=True,
                    help="scratch directory for stores, ledgers and spans")
    ap.add_argument("--until", type=float, default=0.0,
                    help="time.monotonic() by which a sim pass ends its last round")
    ap.add_argument("--cpu", type=int, default=-1,
                    help="CPU to pin the pass and its children to (-1: no pinning)")
    args = ap.parse_args(argv)
    args.spans = args.work / f"spans-{args.phase}-seed{args.seed}.jsonl"
    # the pass, its server and the server's pool worker share one CPU,
    # the one the host probe measures
    if args.cpu >= 0:
        hostprobe.pin_to_cpu(args.cpu)
    out = PASSES[args.phase](args)
    out.setdefault("peak_rss_mb", peak_rss_mb())
    out["failures"] = out["failures"][:20]
    print(json.dumps(out, default=str))
    return 0


if __name__ == "__main__":
    sys.exit(main())
