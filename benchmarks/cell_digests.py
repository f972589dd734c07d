"""Bit-identity check: hash every registry cell and compare with a
committed baseline.

    PYTHONPATH=src python benchmarks/cell_digests.py            # check
    PYTHONPATH=src python benchmarks/cell_digests.py --write    # regenerate

Every workload x version of the registry is swept at p in {1, 3, 16, 36}
at fidelity 0 (estimate) and 2 (simulate), plus one traced p3 pass at
fidelity 2.  Three fault passes at p in {1, 4} pin the error-handling
paths: ``fault`` injects a task failure and a worker stall under a
retrying, degrading policy (reaching every Table III mode: cancel,
poison, rethrow, none and the AMT message/future/rank faults),
``timeout`` runs fault-free under a tiny region timeout, and
``degrade`` pins the time-triggered hooks under the ``fault`` policy: a
bandwidth window from t=0 (every work item's slowdown factor), a stall
at 1 us and a failure at 2 us.  A ``graphs`` pass runs the
``add``-built task graphs outside the registry (UTS, the wavefront,
a ``tbb::pipeline`` and 40 random programs from one ``Random(0)``
stream) at p in {1, 4}, plus one traced p4 run each.  An ``extensions``
pass pins the callers outside the registry that run executors directly
or reach tier 0's dynamic/guided worksharing: three synthesized apps
(``synth.generate(0, 3)``) at fidelity 0 and 2 and p in {1, 4}, the
composability study's ``nested_times`` at p in {4, 8, 16, 36}, the
EPCC-style overhead table and the task-runtime comparison (Cilk, Intel
OpenMP, GCC libgomp).  Each cell's codec document
(times, worker stats, executor meta, and for the traced pass the full
event streams) is serialized the way the result store writes it and
hashed with SHA-256; a cell that fails with an expected error (the
modelled C++11 thread explosion) hashes its error message instead.

The baseline is ``benchmarks/baselines/cell_digests.json``.  A change
meant to be behaviour-preserving must leave every digest unchanged;
regenerate the file only for a change that is meant to move results.
Exit status: 0 all digests match, 1 a mismatch (each is listed).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import pathlib
import sys
import time

BASELINE = pathlib.Path(__file__).resolve().parent / "baselines" / "cell_digests.json"

THREADS = (1, 3, 16, 36)
FIDELITIES = (0, 2)
TRACED_THREADS = (3,)
FAULT_THREADS = (1, 4)
FAULT_PASSES = {
    "fault": dict(
        faults="fail:task=1;stall:worker=0,duration=1e-6",
        policy={"max_retries": 1, "backoff": 1e-6, "on_failure": "continue"},
    ),
    "timeout": dict(policy={"timeout": 1e-6, "on_failure": "continue"}),
    "degrade": dict(
        faults="bandwidth:at=0,duration=1,factor=0.5;stall:at=1e-6,duration=1e-6;"
               "fail:at=2e-6",
        policy={"max_retries": 1, "backoff": 1e-6, "on_failure": "continue"},
    ),
}


def _digest(doc) -> str:
    blob = json.dumps(doc, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _sweep_digests(name: str, threads, fidelity: int, trace: bool,
                   tag: str = "", **faults) -> dict[str, str]:
    from repro.sweep import codec, run_sweep

    sweep = run_sweep(name, threads=threads, fidelity=fidelity, trace=trace,
                      cache=None, **faults)
    tag = tag or ("trace" if trace else f"f{fidelity}")
    out = {}
    for (v, p), res in sweep.results.items():
        out[f"{name}/{v}/p{p}/{tag}"] = _digest(codec.result_to_dict(res))
    for (v, p), err in sweep.errors.items():
        out[f"{name}/{v}/p{p}/{tag}"] = _digest({"error": err})
    return out


GRAPH_THREADS = (1, 4)
GRAPH_TRACED_THREADS = (4,)
RANDOM_PROGRAMS = 40


def _graph_programs():
    """``(label, program, ctx)`` for the task-graph programs the registry
    does not reach, at small sizes."""
    import random

    from repro.extensions import uts, wavefront
    from repro.models import tbb
    from repro.runtime.base import ExecContext
    from repro.sim.task import Program
    from repro.validate.properties import SMALL_MACHINE, random_program

    ctx = ExecContext()
    for v in ("omp_task", "cilk_spawn", "tbb_task"):
        yield f"uts/{v}", uts.program(v, machine=ctx.machine, max_nodes=20_000), ctx
    for v in ("omp_depend", "cxx_future"):
        yield f"wavefront/{v}", wavefront.program(v, machine=ctx.machine, nb=24), ctx
    pipe = Program("tbb-pipeline").add(
        tbb.pipeline([2e-6, 5e-6, 1e-6], [True, False, True], 200))
    yield "tbb_pipeline/tbb", pipe, ctx
    small = ExecContext(machine=SMALL_MACHINE)
    rng = random.Random(0)
    for i in range(RANDOM_PROGRAMS):
        yield f"random/{i}", random_program(rng, i), small


def graph_digests() -> dict[str, str]:
    """Digest of every ``graphs``-pass run, keyed
    ``graphs/<program>/p<n>/<f2|trace>``."""
    from repro.runtime.run import run_program
    from repro.sweep import codec

    out = {}
    for label, program, ctx in _graph_programs():
        for p in GRAPH_THREADS:
            res = run_program(program, p, ctx)
            out[f"graphs/{label}/p{p}/f2"] = _digest(codec.result_to_dict(res))
        for p in GRAPH_TRACED_THREADS:
            res = run_program(program, p, ctx, trace=True)
            out[f"graphs/{label}/p{p}/trace"] = _digest(codec.result_to_dict(res))
    return out


SYNTH_THREADS = (1, 4)
NESTED_THREADS = (4, 8, 16, 36)


def extension_digests() -> dict[str, str]:
    """Digest of every ``extensions``-pass run, keyed
    ``extensions/<synth/app/version/p<n>/<f0|f2>|composability/p<n>|
    microbench|runtimes>``."""
    from repro.extensions.composability import nested_times
    from repro.extensions.runtimes import compare_task_runtimes
    from repro.microbench.overheads import run_suite
    from repro.runtime.base import ExecContext
    from repro.workloads.synth import generate, registered

    out = {}
    with registered(generate(0, 3)) as specs:
        for spec in specs:
            for fid in FIDELITIES:
                for k, v in _sweep_digests(spec.name, SYNTH_THREADS, fid, False).items():
                    out[f"extensions/synth/{k}"] = v
    ctx = ExecContext()
    for p in NESTED_THREADS:
        out[f"extensions/composability/p{p}"] = _digest(nested_times(ctx, p))
    out["extensions/microbench"] = _digest(run_suite(ctx=ctx).rows)
    out["extensions/runtimes"] = _digest(compare_task_runtimes(ctx))
    return out


def cell_digests() -> dict[str, str]:
    """Digest of every cell, keyed
    ``workload/version/p<n>/<f0|f2|trace|fault|timeout|degrade>``, plus the
    ``graphs`` and ``extensions`` passes."""
    from repro.core.registry import WORKLOADS

    digests: dict[str, str] = {}
    for name in WORKLOADS:
        for fid in FIDELITIES:
            digests.update(_sweep_digests(name, THREADS, fid, trace=False))
        digests.update(_sweep_digests(name, TRACED_THREADS, 2, trace=True))
        for tag, kw in FAULT_PASSES.items():
            digests.update(_sweep_digests(name, FAULT_THREADS, 2, False, tag, **kw))
    digests.update(graph_digests())
    digests.update(extension_digests())
    return dict(sorted(digests.items()))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--write", action="store_true", help="regenerate the baseline")
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    digests = cell_digests()
    wall = time.perf_counter() - t0
    if args.write:
        BASELINE.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
        print(f"wrote {len(digests)} cell digests to {BASELINE} ({wall:.1f} s)")
        return 0
    expected = json.loads(BASELINE.read_text())
    bad = sorted(k for k in expected.keys() | digests.keys()
                 if expected.get(k) != digests.get(k))
    for k in bad:
        print(f"MISMATCH {k}: expected {expected.get(k)} got {digests.get(k)}")
    print(f"{len(digests)} cells hashed in {wall:.1f} s, {len(bad)} mismatches")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
