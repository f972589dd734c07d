"""Benchmark of the repro simulator: simulated cells, a tier-0 matrix and
served requests.

    python3 perfbench/run.py --workload sim-cells --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --steadiness 10 --seconds 40 [--workload W]

Run from the repository root.  Each pass runs in a fresh interpreter
(``phases.py``), pinned with its children to one CPU, and is one of
three phases:

- ``sim``: rounds of the fixed list of simulated cells in
  ``mixes.SIM_CELLS``, for at most ``SIM_PASS_SECONDS``;
- ``est``: the whole registry at fidelity 0 (traced runs only);
- ``serve``: the seeded request stream against a ``repro serve``
  subprocess with a one-worker pool and a fresh store.

An untraced run keeps two lanes of back-to-back passes going for
``--seconds``, one per phase, each on its own CPU, so every workload
reports every end-to-end metric.  The workload names the phase whose
lane takes the first CPU and whose processes' set-up time and peak
memory the run reports.  Every timing is scaled to reference-host
seconds by host probes taken around it on the same CPU (see
``hostprobe``).  Sim timings take each cell's median over all its
rounds; serve percentiles pool the requests of all passes.

With ``--trace 0`` the last stdout line is the JSON result with every
end-to-end metric; with ``--trace 1`` every phase runs one traced pass
(which also times the same work untraced) and the result carries every
per-layer metric, the same for either workload.  ``--steadiness N``
runs each workload N times in fresh processes and prints the median,
quartiles and extremes of every end-to-end metric.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pathlib
import signal
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any

import arith
import hostprobe

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "out"

#: Workload name -> the phase whose set-up time and peak memory it reports.
WORKLOADS = {"sim-cells": "sim", "serve-mixed": "serve"}
#: Phases of an untraced run.  The tier-0 matrix (``est``) runs only in
#: the traced run: its timings spread too widely across runs on a shared
#: host to carry an end-to-end bound (see BOUNDS.md).
PHASES = ("sim", "serve")
TRACED_PHASES = ("sim", "est", "serve")
MIN_PASSES = 2
#: Host seconds from its spawn by which a sim pass ends its last round.
SIM_PASS_SECONDS = 10.0
PASS_TIMEOUT = 150.0

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "sim.cells_per_s": "1/s",
    "sim.tasks_per_s": "1/s",
    "serve.req_p50_ms": "ms",
    "serve.req_p90_ms": "ms",
    "serve.req_per_s": "1/s",
    "serve.ttfc_p50_ms": "ms",
}

PER_LAYER = {
    "workloads.build_ms": "ms", "workloads.graph_ms": "ms", "workloads.tasks": "count",
    "runtime.stealing_ms": "ms", "runtime.worksharing_ms": "ms",
    "runtime.threadpool_ms": "ms", "runtime.amt_ms": "ms", "runtime.serial_ms": "ms",
    "runtime.us_per_task": "us",
    "sim.engine.events": "count", "sim.engine.us_per_event": "us",
    "sim.tiers.estimate_ms": "ms", "sim.tiers.us_per_cell": "us",
    "sweep.cache.key_us": "us", "sweep.cache.get_ms": "ms", "sweep.cache.put_ms": "ms",
    "sweep.cache.entry_kb": "KB",
    "sweep.codec.encode_ms": "ms", "sweep.codec.decode_ms": "ms",
    "sweep.codec.traced_mb": "MB",
    "serve.server_ms": "ms", "serve.transport_ms": "ms",
    "serve.cache_hits": "count", "serve.stores": "count", "serve.simulations": "count",
    "serve.estimates": "count", "serve.dedup_joins": "count",
    "obs.tracer_cost_ratio": "ratio",
    "bench.trace_overhead_frac": "frac",
}


class PassFailed(RuntimeError):
    """A pass crashed or printed no result."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("REPRO_SWEEP_SERVER", None)
    env.pop("REPRO_PERF_OFF", None)
    return env


def reap_group(proc: subprocess.Popen) -> None:
    """Kill whatever is left of a pass's process group and wait until it is gone."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def run_pass(phase: str, seed: int, trace: int, cpu: int = -1,
             until: float = math.inf) -> dict[str, Any]:
    """Run one pass in a fresh interpreter pinned to ``cpu``; adds its
    ``setup`` seconds (reference-host seconds, scaled by the probe the
    pass took when set up).  A sim pass ends its rounds by ``until`` or
    ``SIM_PASS_SECONDS`` after its spawn, whichever is first."""
    t_spawn = time.monotonic()
    cmd = [sys.executable, str(HERE / "phases.py"), phase, "--seed", str(seed),
           "--trace", str(trace), "--work", str(WORK / f"cpu{cpu}"), "--cpu", str(cpu),
           "--until", repr(min(until, t_spawn + SIM_PASS_SECONDS))]
    # the pass leads its own process group, which its server and pool
    # worker join; the whole group is reaped however the pass ends
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=PASS_TIMEOUT)
    except subprocess.TimeoutExpired as exc:
        raise PassFailed(f"{phase} pass timed out after {PASS_TIMEOUT:.0f}s") from exc
    finally:
        reap_group(proc)
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise PassFailed(f"{phase} pass exited {proc.returncode}: {stderr[-2000:]}")
    out = json.loads(lines[-1])
    probe = out["setup_probe"]
    out["setup"] = (out["ready"] - t_spawn) * hostprobe.scale(probe, probe)
    return out


def run_phases(workload: str, seed: int, seconds: float) -> dict[str, list[dict[str, Any]]]:
    """Run the phases side by side, each in its own lane of back-to-back
    passes pinned to its own CPU (the workload's phase on the first),
    until the run has lasted ``seconds`` and each phase has
    ``MIN_PASSES`` passes."""
    own = WORKLOADS[workload]
    order = [own] + [ph for ph in PHASES if ph != own]
    cpus = lane_cpus()
    phases: dict[str, list[dict[str, Any]]] = {ph: [] for ph in PHASES}
    t_end = time.monotonic() + seconds

    def lane(phase: str, cpu: int) -> None:
        while time.monotonic() < t_end or len(phases[phase]) < MIN_PASSES:
            phases[phase].append(run_pass(phase, seed, 0, cpu, t_end))

    with ThreadPoolExecutor(max_workers=len(order)) as pool:
        lanes = [pool.submit(lane, ph, cpus[i % len(cpus)]) for i, ph in enumerate(order)]
        for done in lanes:
            done.result()
    return phases


def lane_cpus() -> list[int]:
    return sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else [-1]


def cell_medians(passes: list[dict[str, Any]]) -> list[float]:
    """Each cell's median time over every timed round of every pass."""
    labels = list(passes[0]["samples"])
    return [statistics.median(x for p in passes for x in p["samples"][label])
            for label in labels]


def pooled(passes: list[dict[str, Any]], key: str) -> list[float]:
    """One sample list of every pass's requests."""
    return [x for p in passes for x in p["samples"][key]]


def end_to_end(workload: str, phases: dict[str, list[dict[str, Any]]]) -> dict[str, float]:
    """The end-to-end metrics of one run.

    Every timing is in reference-host seconds (see ``hostprobe``).  Sim
    timings take each cell's median over all its timed rounds; serve
    percentiles pool the requests of every pass, each pass being the
    same seeded stream on a fresh store.
    """
    sim = cell_medians(phases["sim"])
    sim_tasks = sum(phases["sim"][0]["tasks"].values())
    latency = pooled(phases["serve"], "latency")
    ttfc = pooled(phases["serve"], "ttfc")
    own = phases[WORKLOADS[workload]]
    return {
        "setup_s": statistics.median(p["setup"] for p in own),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in own),
        "sim.cells_per_s": len(sim) / sum(sim),
        "sim.tasks_per_s": sim_tasks / sum(sim),
        "serve.req_p50_ms": arith.percentile(latency, 50) * 1e3,
        "serve.req_p90_ms": arith.percentile(latency, 90) * 1e3,
        "serve.req_per_s": statistics.median(len(p["samples"]["latency"]) / p["scaled_wall"]
                                             for p in phases["serve"]),
        "serve.ttfc_p50_ms": arith.percentile(ttfc, 50) * 1e3,
    }


def expected_counts(phase: str, ref: dict[str, Any], out: dict[str, Any]) -> dict[str, int]:
    if phase == "serve":
        return out["expected"]
    want = dict(ref[phase]["counts"])
    if "workloads.tasks" not in out["counts"]:
        want.pop("workloads.tasks")
    return want


def fingerprint_errors(passes: list[dict[str, Any]]) -> list[str]:
    ref = json.loads((HERE / "reference.json").read_text())
    errors = []
    for out in passes:
        want = expected_counts(out["phase"], ref, out)
        for counts in (out["counts"], out.get("traced_counts", want)):
            errors += [f"{out['phase']} {m}" for m in arith.fingerprint_mismatches(counts, want)]
    return errors


def report(passes: list[dict[str, Any]], metrics: dict[str, float], units: dict[str, str],
           seed: int) -> int:
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    fp_errors = fingerprint_errors(passes)
    streams = {p["stream_digest"] for p in passes if "stream_digest" in p}
    log = sys.stderr
    print(f"seed {seed}; serve stream digest {', '.join(sorted(streams))}", file=log)
    for p in passes:
        print(f"  {p['phase']:5s} pass: setup {p['setup']:.3f}s wall {p['wall']:.3f}s "
              f"counts {json.dumps(p['counts'], sort_keys=True)}", file=log)
    for msg in [f for p in passes for f in p["failures"]] + fp_errors:
        print(f"  FAILED {msg}", file=log)
    print(f"failed_frac {arith.failed_frac(failed, attempted):.6f} "
          f"({failed}/{attempted} operations)", file=log)
    result = {
        "correct": failed == 0 and not fp_errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_untraced(workload: str, seed: int, seconds: float) -> int:
    phases = run_phases(workload, seed, seconds)
    passes = [p for ph in PHASES for p in phases[ph]]
    return report(passes, end_to_end(workload, phases), END_TO_END, seed)


def per_layer(passes: list[dict[str, Any]]) -> dict[str, float]:
    """Sum each layer's figures over one traced pass of every phase.

    A layer reached by one phase only (tiers, cache, codec, serve, obs)
    reads that phase's figure; workloads and runtime add up the
    simulated cells and the tier-0 matrix.
    """
    raw: dict[str, float] = {}
    for p in passes:
        for name, value in p["layers"].items():
            raw[name] = raw.get(name, 0.0) + value
    runtime_ms = sum(raw.get(name, 0.0) for name in PER_LAYER
                     if name.startswith("runtime.") and name.endswith("_ms"))
    tasks, events = raw.pop("runtime.tasks", 0), raw.pop("runtime.stealing_events", 0)
    raw["runtime.us_per_task"] = runtime_ms * 1e3 / tasks if tasks else 0.0
    raw["sim.engine.us_per_event"] = (
        raw["runtime.stealing_ms"] * 1e3 / events if events else 0.0)
    raw["bench.trace_overhead_frac"] = (
        sum(p["traced_wall"] for p in passes) / sum(p["wall"] for p in passes) - 1.0)
    return {name: raw.get(name, 0.0) for name in PER_LAYER}


def run_traced(seed: int) -> int:
    passes = [run_pass(ph, seed, 1, lane_cpus()[0]) for ph in TRACED_PHASES]
    return report(passes, per_layer(passes), PER_LAYER, seed)


# ---------------------------------------------------------------------------
# steadiness report
# ---------------------------------------------------------------------------
def steadiness(workloads: list[str], runs: int, seconds: float, seed0: int) -> int:
    """Run each workload ``runs`` times in fresh processes; print spreads."""
    summary: dict[str, Any] = {}
    for workload in workloads:
        values: dict[str, list[float]] = {}
        for i in range(runs):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed0 + i), "--seconds", str(seconds), "--trace", "0"]
            t0 = time.monotonic()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} run {i} failed:\n{proc.stderr[-2000:]}", file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            print(f"{workload} seed {seed0 + i}: {time.monotonic() - t0:.1f}s "
                  f"correct={result['correct']}", file=sys.stderr, flush=True)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        summary[workload] = {name: arith.spread(v) for name, v in values.items()}
        print(f"\n{workload} ({runs} runs)")
        print(f"{'metric':20s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'min':>12s} {'max':>12s} {'iqr/med':>8s}")
        for name, s in summary[workload].items():
            print(f"{name:20s} {s['median']:12.4f} {s['q1']:12.4f} {s['q3']:12.4f} "
                  f"{s['min']:12.4f} {s['max']:12.4f} {s['iqr_frac']:8.3f}")
    (WORK / "steadiness.json").write_text(json.dumps(summary, indent=1))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steadiness", type=int, metavar="N", default=0,
                    help="run each workload N times and print the spread of every metric")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro sources under {ROOT / 'src'}; run from a repository checkout",
              file=sys.stderr)
        return 2
    WORK.mkdir(parents=True, exist_ok=True)
    if args.steadiness:
        chosen = [args.workload] if args.workload else list(WORKLOADS)
        return steadiness(chosen, args.steadiness, args.seconds, args.seed)
    if args.workload is None:
        ap.error("--workload is required")
    try:
        if args.trace:
            return run_traced(args.seed)
        return run_untraced(args.workload, args.seed, args.seconds)
    except PassFailed as exc:
        print(f"benchmark pass failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
