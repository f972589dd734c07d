"""Regenerate ``reference.json``: the digests and exact counts every
benchmark run is checked against.

    python3 perfbench/make_reference.py

Run it from the repository root on the commit the benchmark was defined
on; a later commit that changes a result must not regenerate it.  Cells
are computed through the local ``run_sweep`` path, and served cells are
digested from the entries the local path writes to a ``ResultCache``, so
a served document that matches its digest matches the local-sweep
document byte for byte.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import arith  # noqa: E402
import mixes  # noqa: E402


def graph_tasks(spec, version: str, nthreads: int, machine, params) -> int:
    from repro.sim.task import TaskRegion

    program = spec.build(version, machine, **params)
    return sum(len(r.graph_for(nthreads).tasks) for r in program if isinstance(r, TaskRegion))


def sim_reference() -> dict:
    from repro.core.registry import get_workload
    from repro.runtime.base import ExecContext
    from repro.sweep import codec, run_sweep

    ctx = ExecContext()
    digests = {}
    counts = {"cells": 0, "sim.engine.events": 0, "sim.tasks": 0, "workloads.tasks": 0}
    for w, v, p in mixes.SIM_CELLS:
        res = run_sweep(w, versions=[v], threads=[p], cache=None).results[(v, p)]
        digests[mixes.cell_label(w, v, p)] = arith.doc_digest(codec.result_to_dict(res))
        counts["cells"] += 1
        counts["sim.engine.events"] += sum(r.meta.get("events", 0) for r in res.regions)
        counts["sim.tasks"] += res.total_tasks
        counts["workloads.tasks"] += graph_tasks(get_workload(w), v, p, ctx.machine, {})
    return {"digests": digests, "counts": counts}


def est_reference() -> dict:
    from repro.core.registry import WORKLOADS
    from repro.runtime.base import ExecContext
    from repro.sweep import codec, run_sweep

    ctx = ExecContext()
    digests = {}
    counts = {"cells": 0, "est.tasks": 0, "workloads.tasks": 0}
    for name, spec in WORKLOADS.items():
        params = mixes.MATRIX_PARAMS.get(name, {})
        sweep = run_sweep(name, threads=mixes.PAPER_THREADS, params=params,
                          fidelity=0, cache=None)
        if sweep.errors:
            raise SystemExit(f"{name}: unexpected cell errors {sweep.errors}")
        for v in spec.versions:
            for p in mixes.PAPER_THREADS:
                res = sweep.results[(v, p)]
                digests[mixes.cell_label(name, v, p, 0)] = arith.doc_digest(
                    codec.result_to_dict(res))
                counts["cells"] += 1
                counts["est.tasks"] += res.total_tasks
                # tier 0 builds the same spawn graphs as a simulation,
                # except for the static placements it delegates
                counts["workloads.tasks"] += graph_tasks(spec, v, p, ctx.machine, params)
    return {"digests": digests, "counts": counts}


def serve_reference(work: pathlib.Path) -> dict:
    from repro.runtime.base import ExecContext
    from repro.sweep import ResultCache, SweepCell, cache_key, run_sweep

    shutil.rmtree(work, ignore_errors=True)
    store = ResultCache(work)
    ctx = ExecContext()
    digests = {}
    groups: dict[tuple, list[int]] = {}
    for w, v, p, fid, trace in mixes.serve_universe():
        groups.setdefault((w, v, fid, trace), []).append(p)
    for (w, v, fid, trace), threads in groups.items():
        run_sweep(w, versions=[v], threads=threads, fidelity=fid, trace=trace, cache=store)
        for p in threads:
            cell = SweepCell(w, v, p, {}, fidelity=fid)
            entry = store.get(cache_key(cell, ctx.with_fidelity(fid), trace=trace))
            digests[mixes.cell_label(w, v, p, fid, trace)] = arith.doc_digest(entry)
    shutil.rmtree(work, ignore_errors=True)
    return {"digests": digests}


def main() -> int:
    ref = {
        "sim": sim_reference(),
        "est": est_reference(),
        "serve": serve_reference(HERE / "out" / "reference-store"),
    }
    path = HERE / "reference.json"
    path.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}: {len(ref['sim']['digests'])} simulated, "
          f"{len(ref['est']['digests'])} estimated, "
          f"{len(ref['serve']['digests'])} served cells")
    return 0


if __name__ == "__main__":
    sys.exit(main())
