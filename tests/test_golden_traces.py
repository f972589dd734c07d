"""Golden-trace regression suite.

Committed golden JSON traces (``tests/goldens/``) pin the simulator's
*exact* event streams — span intervals, instants, engine events, lock
grants — and final times for small axpy and fib runs at p in {1, 4},
plus lud/cilk_for and bfs/omp_task at p=4.
Three execution paths must reproduce each golden bit-for-bit:

1. a direct serial :func:`~repro.runtime.run.run_program` call;
2. a ``jobs=N`` parallel sweep (results cross a process + JSON codec
   boundary);
3. a cache-hit replay (results decoded from the content-addressed
   on-disk cache without simulating).

This is the enforcement arm of the sweep subsystem's determinism
contract: if a scheduler, cost-model or codec change alters even one
event timestamp, all three paths fail here together — and if only the
parallel or cached path drifts, the diff points straight at the
executor/codec layer.

Regenerate intentionally-changed goldens with::

    pytest tests/test_golden_traces.py --update-goldens
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.core.registry import get_workload
from repro.runtime.base import ExecContext
from repro.runtime.run import run_program
from repro.sweep import run_sweep
from repro.sweep.codec import tracer_to_dict

GOLDEN_DIR = pathlib.Path(__file__).parent / "goldens"

#: (workload, version, params, threads) — small enough to commit, rich
#: enough to cover a worksharing loop (axpy), a work-stealing task tree
#: with engine events and lock grants (fib), batched cilk_for graphs
#: over skewed triangular iteration spaces (lud), and flat chunk tasks
#: on locked deques (bfs).  One golden per thread count.
SWEEPS = [
    ("axpy", "omp_for", {"n": 120_000}, (1, 4)),
    ("fib", "cilk_spawn", {"n": 10}, (1, 4)),
    ("lud", "cilk_for", {"n": 128, "block": 32}, (4,)),
    ("bfs", "omp_task", {"n_nodes": 30_000}, (4,)),
]

#: (workload, version, params, nthreads) — one per golden file.
CASES = [(w, v, params, p) for w, v, params, threads in SWEEPS for p in threads]

CASE_IDS = [f"{w}-{v}-p{p}" for w, v, params, p in CASES]

SWEEP_IDS = [w for w, _v, _params, _threads in SWEEPS]


def golden_path(workload: str, version: str, nthreads: int) -> pathlib.Path:
    return GOLDEN_DIR / f"{workload}_{version}_p{nthreads}.json"


def serial_payload(workload: str, version: str, params: dict, nthreads: int) -> dict:
    """Golden document for one cell: final time + full trace streams."""
    ctx = ExecContext()
    spec = get_workload(workload)
    program = spec.build(version, ctx.machine, **params)
    res = run_program(program, nthreads, ctx, version, trace=True)
    return {
        "workload": workload,
        "version": version,
        "nthreads": nthreads,
        "params": dict(params),
        "time": res.time,
        "trace": tracer_to_dict(res.trace),
    }


def load_golden(workload: str, version: str, nthreads: int) -> dict:
    path = golden_path(workload, version, nthreads)
    if not path.exists():
        pytest.fail(
            f"missing golden {path}; generate with "
            "`pytest tests/test_golden_traces.py --update-goldens`"
        )
    return json.loads(path.read_text())


@pytest.mark.parametrize("workload,version,params,nthreads", CASES, ids=CASE_IDS)
def test_serial_run_matches_golden(workload, version, params, nthreads, update_goldens):
    payload = serial_payload(workload, version, params, nthreads)
    path = golden_path(workload, version, nthreads)
    if update_goldens:
        GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
        pytest.skip(f"updated {path.name}")
    golden = load_golden(workload, version, nthreads)
    # JSON round-trips floats exactly, so this is bit-level equality of
    # every timestamp, not an approximate comparison.
    assert payload == golden


@pytest.mark.parametrize("workload,version,params,threads", SWEEPS, ids=SWEEP_IDS)
def test_parallel_sweep_matches_golden(workload, version, params, threads, update_goldens):
    if update_goldens:
        pytest.skip("golden update run")
    sweep = run_sweep(
        workload, versions=[version], threads=threads, params=params, jobs=2, trace=True
    )
    for p in threads:
        golden = load_golden(workload, version, p)
        res = sweep.results[(version, p)]
        assert res.time == golden["time"]
        assert tracer_to_dict(res.trace) == golden["trace"]


@pytest.mark.parametrize("workload,version,params,threads", SWEEPS, ids=SWEEP_IDS)
def test_cache_replay_matches_golden(
    workload, version, params, threads, tmp_path, update_goldens
):
    if update_goldens:
        pytest.skip("golden update run")
    kwargs = dict(
        versions=[version], threads=threads, params=params, cache=tmp_path, trace=True
    )
    first = run_sweep(workload, **kwargs)
    assert first.counter("simulations") == len(threads)
    replay = run_sweep(workload, **kwargs)
    assert replay.counter("simulations") == 0
    assert replay.counter("cache_hits") == len(threads)
    for p in threads:
        golden = load_golden(workload, version, p)
        res = replay.results[(version, p)]
        assert res.time == golden["time"]
        assert tracer_to_dict(res.trace) == golden["trace"]


# ---------------------------------------------------------------------------
# fault-injected goldens: the same three-path determinism contract must
# hold when a fault plan + retry policy are active (the failed attempt,
# its backoff, and the retry all land in the pinned event streams)
# ---------------------------------------------------------------------------
FAULT_SPEC = "fail:task=5"
FAULT_POLICY = {"max_retries": 1, "backoff": 1e-6, "on_failure": "continue"}


def fault_golden_path(nthreads: int) -> pathlib.Path:
    return GOLDEN_DIR / f"fib_cilk_spawn_p{nthreads}_fault.json"


def fault_serial_payload(nthreads: int) -> dict:
    ctx = ExecContext()
    spec = get_workload("fib")
    program = spec.build("cilk_spawn", ctx.machine, n=10)
    res = run_program(
        program, nthreads, ctx, "cilk_spawn",
        trace=True, faults=FAULT_SPEC, policy=FAULT_POLICY,
    )
    return {
        "workload": "fib",
        "version": "cilk_spawn",
        "nthreads": nthreads,
        "inject": FAULT_SPEC,
        "policy": dict(FAULT_POLICY),
        "time": res.time,
        "faults": [r.meta.get("fault") for r in res.regions],
        "trace": tracer_to_dict(res.trace),
    }


def load_fault_golden(nthreads: int) -> dict:
    path = fault_golden_path(nthreads)
    if not path.exists():
        pytest.fail(
            f"missing golden {path}; generate with "
            "`pytest tests/test_golden_traces.py --update-goldens`"
        )
    return json.loads(path.read_text())


@pytest.mark.parametrize("nthreads", [1, 4], ids=["p1", "p4"])
def test_fault_serial_run_matches_golden(nthreads, update_goldens):
    payload = fault_serial_payload(nthreads)
    path = fault_golden_path(nthreads)
    if update_goldens:
        GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
        pytest.skip(f"updated {path.name}")
    assert payload == load_fault_golden(nthreads)


def test_fault_parallel_sweep_matches_golden(update_goldens):
    if update_goldens:
        pytest.skip("golden update run")
    sweep = run_sweep(
        "fib", versions=["cilk_spawn"], threads=(1, 4), params={"n": 10},
        jobs=2, trace=True, faults=FAULT_SPEC, policy=FAULT_POLICY,
    )
    for p in (1, 4):
        golden = load_fault_golden(p)
        res = sweep.results[("cilk_spawn", p)]
        assert res.time == golden["time"]
        assert [r.meta.get("fault") for r in res.regions] == golden["faults"]
        assert tracer_to_dict(res.trace) == golden["trace"]


def test_fault_cache_replay_matches_golden(tmp_path, update_goldens):
    if update_goldens:
        pytest.skip("golden update run")
    kwargs = dict(
        versions=["cilk_spawn"], threads=(1, 4), params={"n": 10},
        cache=tmp_path, trace=True, faults=FAULT_SPEC, policy=FAULT_POLICY,
    )
    first = run_sweep("fib", **kwargs)
    assert first.counter("simulations") == 2
    replay = run_sweep("fib", **kwargs)
    assert replay.counter("simulations") == 0
    assert replay.counter("cache_hits") == 2
    # fault-injected entries must not collide with fault-free ones
    clean = run_sweep(
        "fib", versions=["cilk_spawn"], threads=(1, 4), params={"n": 10},
        cache=tmp_path, trace=True,
    )
    assert clean.counter("cache_hits") == 0
    for p in (1, 4):
        golden = load_fault_golden(p)
        res = replay.results[("cilk_spawn", p)]
        assert res.time == golden["time"]
        assert [r.meta.get("fault") for r in res.regions] == golden["faults"]
        assert tracer_to_dict(res.trace) == golden["trace"]


def test_fault_goldens_record_failure_and_retry():
    """The committed fault goldens must pin a real failed attempt plus a
    clean retry (otherwise the fault suite pins nothing interesting)."""
    for p in (1, 4):
        golden = load_fault_golden(p)
        docs = [d for d in golden["faults"] if d]
        assert docs, "no fault document in golden"
        assert any(d.get("failed") for d in docs)
        assert any(d.get("recovery", 0) > 0 for d in docs)
        # the retried attempt succeeded: last region has no fault doc
        assert golden["faults"][-1] is None


def test_goldens_cover_engine_events():
    """The committed fib goldens must actually exercise the engine's
    event stream (an empty stream would make the suite vacuous)."""
    golden = load_golden("fib", "cilk_spawn", 4)
    assert len(golden["trace"]["engine_events"]) > 100
    assert len(golden["trace"]["spans"]) > 100
    assert golden["trace"]["lock_events"]


# ---------------------------------------------------------------------------
# AMT fault goldens: one cell per asynchronous many-tasking runtime,
# under its canonical Table III error mode (charm -> message loss,
# hpx -> future poisoning, mpi -> rank failure / abort), pinned across
# the same serial / jobs=2 / cache-replay determinism contract
# ---------------------------------------------------------------------------
AMT_FAULT_CASES = [
    ("axpy", "charm", {"n": 120_000}, "fail:task=2"),
    ("fib", "hpx", {"n": 10}, "fail:task=5"),
    ("axpy", "mpi", {"n": 120_000}, "fail:task=1"),
]

AMT_FAULT_IDS = [f"{w}-{v}" for w, v, _params, _spec in AMT_FAULT_CASES]

AMT_P = 4


def amt_fault_golden_path(workload: str, version: str) -> pathlib.Path:
    return GOLDEN_DIR / f"{workload}_{version}_p{AMT_P}_fault.json"


def amt_fault_serial_payload(workload, version, params, spec_str) -> dict:
    ctx = ExecContext()
    spec = get_workload(workload)
    program = spec.build(version, ctx.machine, **params)
    res = run_program(
        program, AMT_P, ctx, version,
        trace=True, faults=spec_str, policy=FAULT_POLICY,
    )
    return {
        "workload": workload,
        "version": version,
        "nthreads": AMT_P,
        "params": dict(params),
        "inject": spec_str,
        "policy": dict(FAULT_POLICY),
        "time": res.time,
        "faults": [r.meta.get("fault") for r in res.regions],
        "trace": tracer_to_dict(res.trace),
    }


def load_amt_fault_golden(workload: str, version: str) -> dict:
    path = amt_fault_golden_path(workload, version)
    if not path.exists():
        pytest.fail(
            f"missing golden {path}; generate with "
            "`pytest tests/test_golden_traces.py --update-goldens`"
        )
    return json.loads(path.read_text())


@pytest.mark.parametrize("workload,version,params,spec_str",
                         AMT_FAULT_CASES, ids=AMT_FAULT_IDS)
def test_amt_fault_serial_run_matches_golden(
    workload, version, params, spec_str, update_goldens
):
    payload = amt_fault_serial_payload(workload, version, params, spec_str)
    path = amt_fault_golden_path(workload, version)
    if update_goldens:
        GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
        pytest.skip(f"updated {path.name}")
    assert payload == load_amt_fault_golden(workload, version)


@pytest.mark.parametrize("workload,version,params,spec_str",
                         AMT_FAULT_CASES, ids=AMT_FAULT_IDS)
def test_amt_fault_parallel_sweep_matches_golden(
    workload, version, params, spec_str, update_goldens
):
    if update_goldens:
        pytest.skip("golden update run")
    sweep = run_sweep(
        workload, versions=[version], threads=(AMT_P,), params=params,
        jobs=2, trace=True, faults=spec_str, policy=FAULT_POLICY,
    )
    golden = load_amt_fault_golden(workload, version)
    res = sweep.results[(version, AMT_P)]
    assert res.time == golden["time"]
    assert [r.meta.get("fault") for r in res.regions] == golden["faults"]
    assert tracer_to_dict(res.trace) == golden["trace"]


@pytest.mark.parametrize("workload,version,params,spec_str",
                         AMT_FAULT_CASES, ids=AMT_FAULT_IDS)
def test_amt_fault_cache_replay_matches_golden(
    workload, version, params, spec_str, tmp_path, update_goldens
):
    if update_goldens:
        pytest.skip("golden update run")
    kwargs = dict(
        versions=[version], threads=(AMT_P,), params=params,
        cache=tmp_path, trace=True, faults=spec_str, policy=FAULT_POLICY,
    )
    first = run_sweep(workload, **kwargs)
    assert first.counter("simulations") == 1
    replay = run_sweep(workload, **kwargs)
    assert replay.counter("simulations") == 0
    assert replay.counter("cache_hits") == 1
    golden = load_amt_fault_golden(workload, version)
    res = replay.results[(version, AMT_P)]
    assert res.time == golden["time"]
    assert [r.meta.get("fault") for r in res.regions] == golden["faults"]
    assert tracer_to_dict(res.trace) == golden["trace"]


def test_amt_fault_goldens_pin_table3_semantics():
    """Each committed AMT golden must exhibit its model's Table III
    discipline, not just any fault document."""
    charm = [d for d in load_amt_fault_golden("axpy", "charm")["faults"] if d]
    assert any(d["mode"] == "msg_loss" and d["failed"] for d in charm)
    # run-to-completion: nothing is cancelled or skipped
    assert all(not d["cancelled"] and not d.get("skipped") for d in charm)
    hpx = [d for d in load_amt_fault_golden("fib", "hpx")["faults"] if d]
    assert any(
        d["mode"] == "future_poison" and d["failed"] and d.get("skipped")
        for d in hpx
    )
    mpi = [d for d in load_amt_fault_golden("axpy", "mpi")["faults"] if d]
    assert any(
        d["mode"] == "rank_fail" and d["cancelled"] and d["failed"]
        for d in mpi
    )
