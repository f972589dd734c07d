"""Task Bench task-graph workload battery.

Three layers pin :mod:`repro.workloads.taskgraph`:

1. **graph shape** — node/edge counts, topological validity and grain
   accounting (``T_1``, ``T_inf``) for every dependency pattern as pure
   functions of the parameters;
2. **tier identity** — the simulator's memoized/vectorized fast paths
   must reproduce the scalar reference bit-for-bit (results *and*
   traces) for every task-capable runtime;
3. **goldens** — committed serial traces for two small graphs which a
   ``jobs=2`` parallel sweep (process + codec boundary) must reproduce
   exactly.  Regenerate intentionally-changed goldens with
   ``pytest tests/test_taskgraph.py --update-goldens``.
"""

from __future__ import annotations

import contextlib
import json
import pathlib

import pytest

from repro.core.registry import WORKLOADS, get_workload
from repro.runtime.base import ExecContext
from repro.runtime.run import run_program
from repro.sim.task import Task
from repro.sweep import run_sweep
from repro.sweep.codec import result_to_dict, tracer_to_dict
from repro.workloads.taskgraph import (
    PATTERNS,
    TASKBENCH_VERSIONS,
    GrainPoint,
    build_taskgraph_program,
    met_sweep,
    minimum_effective_grain,
    program,
    taskbench_graph,
    tree_levels,
)
from tests.test_tiers_properties import scalar_reference

GOLDEN_DIR = pathlib.Path(__file__).parent / "goldens"


# ---------------------------------------------------------------------------
# graph shape: node/edge counts, acyclicity, grain accounting
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("pattern", ["stencil", "fft", "random"])
@pytest.mark.parametrize("width,steps", [(4, 3), (8, 5), (7, 4)])
def test_grid_patterns_have_width_by_steps_tasks(pattern, width, steps):
    g = taskbench_graph(pattern, width, steps, 1e-6)
    assert len(g) == width * steps
    g.validate()


@pytest.mark.parametrize(
    "width,steps,expected",
    [
        (8, 6, [1, 2, 4, 4, 2, 1]),
        (8, 7, [1, 2, 4, 8, 4, 2, 1]),
        (5, 4, [1, 2, 2, 1]),
        (1, 3, [1, 1, 1]),
    ],
)
def test_tree_levels(width, steps, expected):
    assert tree_levels(width, steps) == expected


@pytest.mark.parametrize("width,steps", [(4, 4), (8, 7), (5, 6)])
def test_tree_node_count_matches_levels(width, steps):
    g = taskbench_graph("tree", width, steps, 1e-6)
    assert len(g) == sum(tree_levels(width, steps))
    g.validate()
    # exactly one root (the fork apex) and every non-root task reachable
    assert g.roots == [0]


@pytest.mark.parametrize("width,steps", [(4, 3), (8, 5)])
def test_stencil_edge_count(width, steps):
    # fan=3 => radius 1: interior tasks have 3 parents, the two edge
    # tasks 2, so each of the steps-1 level transitions carries 3w - 2
    # edges.
    g = taskbench_graph("stencil", width, steps, 1e-6, fan=3)
    edges = sum(len(t.deps) for t in g.tasks)
    assert edges == (steps - 1) * (3 * width - 2)


@pytest.mark.parametrize("width,steps", [(4, 3), (8, 5), (16, 4)])
def test_fft_edge_count_power_of_two(width, steps):
    # power-of-two width: every XOR partner exists, so each task past
    # step 0 has exactly two parents (itself + butterfly partner).
    g = taskbench_graph("fft", width, steps, 1e-6)
    edges = sum(len(t.deps) for t in g.tasks)
    assert edges == 2 * width * (steps - 1)


def test_random_pattern_is_a_pure_function_of_seed():
    a = taskbench_graph("random", 16, 6, 1e-6, fan=4, seed=7)
    b = taskbench_graph("random", 16, 6, 1e-6, fan=4, seed=7)
    c = taskbench_graph("random", 16, 6, 1e-6, fan=4, seed=8)
    deps = lambda g: [t.deps for t in g.tasks]  # noqa: E731
    assert deps(a) == deps(b)
    assert deps(a) != deps(c)
    # the chain dependency (s-1, i) is always present
    for s in range(1, 6):
        for i in range(16):
            assert (s - 1) * 16 + i in a.tasks[s * 16 + i].deps


@pytest.mark.parametrize("pattern", PATTERNS)
def test_grain_accounting(pattern):
    width, steps, grain = 6, 5, 2.5e-6
    g = taskbench_graph(pattern, width, steps, grain)
    assert g.total_work() == pytest.approx(len(g) * grain)
    # every pattern is level-structured: the critical path is one task
    # per step
    assert g.critical_path() == pytest.approx(steps * grain)


def test_bad_parameters_raise():
    with pytest.raises(ValueError):
        taskbench_graph("ring", 4, 3, 1e-6)
    with pytest.raises(ValueError):
        taskbench_graph("stencil", 0, 3, 1e-6)
    with pytest.raises(ValueError):
        taskbench_graph("stencil", 4, 0, 1e-6)
    with pytest.raises(ValueError):
        taskbench_graph("stencil", 4, 3, -1e-6)
    with pytest.raises(ValueError):
        taskbench_graph("stencil", 4, 3, 1e-6, fan=0)
    with pytest.raises(ValueError):
        tree_levels(0, 3)


# ---------------------------------------------------------------------------
# program construction and registry wiring
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("version", TASKBENCH_VERSIONS)
def test_program_builds_for_every_task_runtime(version, ctx):
    prog = program(version, machine=ctx.machine, width=4, steps=3, grain=1e-6)
    res = run_program(prog, 4, ctx, version, validate=True)
    assert res.time > 0


@pytest.mark.parametrize("version", ["omp_for", "cilk_for", "nope"])
def test_loop_versions_are_rejected(version, ctx):
    with pytest.raises(ValueError):
        program(version, machine=ctx.machine, width=4, steps=3, grain=1e-6)


def test_registry_builder_dispatch(ctx):
    assert "taskbench" in WORKLOADS
    spec = get_workload("taskbench")
    assert spec.kind == "taskgraph"
    assert spec.versions == TASKBENCH_VERSIONS
    prog = spec.build("omp_task", ctx.machine, **spec.validation_params)
    assert prog.meta["kernel"] == "taskbench"
    with pytest.raises(KeyError):
        build_taskgraph_program("lattice", "omp_task", ctx.machine)


# ---------------------------------------------------------------------------
# the task record: an immutable named tuple with the old dataclass's fields
# ---------------------------------------------------------------------------
TASK_FIELDS = ("tid", "work", "membytes", "locality", "deps", "tag", "spawn_cost")


def test_task_fields_cannot_be_assigned():
    t = Task(0, 1.0)
    for name in TASK_FIELDS:
        with pytest.raises(AttributeError):
            setattr(t, name, getattr(t, name))
    assert t == Task(0, 1.0)


def test_task_field_order_and_defaults():
    assert Task._fields == TASK_FIELDS
    assert Task._field_defaults == {
        "membytes": 0.0, "locality": 1.0, "deps": (), "tag": "", "spawn_cost": 0.0,
    }
    t = Task(7, 2.5, 64.0, 0.5, (1, 3), "leaf", 1e-7)
    assert [getattr(t, name) for name in TASK_FIELDS] == [7, 2.5, 64.0, 0.5, (1, 3), "leaf", 1e-7]
    with pytest.raises(TypeError):
        Task(0)  # work has no default


def test_task_hashes_and_compares_as_a_tuple():
    t = Task(3, 1.0, deps=(1, 2), tag="x")
    plain = (3, 1.0, 0.0, 1.0, (1, 2), "x", 0.0)
    assert t == plain and hash(t) == hash(plain)
    assert len({t, Task(3, 1.0, deps=(1, 2), tag="x"), Task(4, 1.0)}) == 2


@pytest.mark.parametrize(
    "kwargs,match",
    [
        ({"work": 1.0, "deps": (5,)}, "unknown/future"),
        ({"work": 1.0, "deps": (0, 2)}, "unknown/future"),
        ({"work": 1.0, "deps": (-1,)}, "unknown/future"),
        ({"work": -1.0}, "non-negative"),
        ({"work": 1.0, "membytes": -8.0}, "non-negative"),
        ({"work": 1.0, "spawn_cost": -1e-9}, "non-negative"),
        ({"work": 1.0, "locality": 1.5}, "locality"),
        ({"work": 1.0, "locality": -0.1}, "locality"),
        ({"work": -1.0, "deps": (0,)}, "non-negative"),
        ({"work": float("nan")}, "non-negative"),
        ({"work": 1.0, "membytes": float("nan")}, "non-negative"),
        ({"work": 1.0, "spawn_cost": float("nan")}, "non-negative"),
    ],
)
def test_graph_add_rejects_bad_input(kwargs, match):
    from repro.sim.task import TaskGraph

    g = TaskGraph()
    g.add(1.0)
    g.add(1.0, deps=(0,))
    before = (list(g.tasks), [list(s) for s in g.successors])
    with pytest.raises(ValueError, match=match) as inc:
        g.add(**kwargs)
    # a rejected add leaves the graph as it was
    assert (list(g.tasks), [list(s) for s in g.successors]) == before
    # the bulk constructor rejects the same third task with the same message
    deps = kwargs.get("deps", ())
    cols = {k: [1.0, 1.0, v] for k, v in kwargs.items() if k != "deps"}
    with pytest.raises(ValueError) as bulk:
        TaskGraph.from_columns("bulk", dep_ptr=[0, 0, 1, 1 + len(deps)],
                               dep_idx=[0, *deps], **cols)
    assert str(bulk.value) == str(inc.value)


# ---------------------------------------------------------------------------
# tier identity: the simulator's fast paths (once "tier 1") == the scalar
# reference they replicate (once "tier 2"), bitwise
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("version", TASKBENCH_VERSIONS)
@pytest.mark.parametrize("pattern", PATTERNS)
def test_tier1_bit_identical_to_tier2(version, pattern):
    """The fast paths give the traced result ``scalar_reference`` gives
    (the name predates the removal of tier 1)."""
    params = dict(pattern=pattern, width=4, steps=3, grain=1e-6)
    ctx = ExecContext()
    docs = []
    for paths in (contextlib.nullcontext, scalar_reference):
        with paths():
            prog = program(version, machine=ctx.machine, **params)
            res = run_program(prog, 4, ctx, version, trace=True)
        docs.append(result_to_dict(res, with_trace=True))
    assert docs[0] == docs[1]


# ---------------------------------------------------------------------------
# MET sweep helpers
# ---------------------------------------------------------------------------
def test_minimum_effective_grain_picks_smallest_passing():
    pts = [
        GrainPoint(1e-6, 4e-5, 1e-5),   # efficiency 0.25
        GrainPoint(2e-6, 3e-5, 1.8e-5),  # efficiency 0.6
        GrainPoint(4e-6, 4e-5, 3.8e-5),  # efficiency 0.95
    ]
    assert minimum_effective_grain(pts) == 2e-6
    assert minimum_effective_grain(pts, threshold=0.9) == 4e-6
    assert minimum_effective_grain(pts, threshold=0.99) is None


def test_met_sweep_shapes_and_monotone_overhead(ctx):
    grains = (1e-6, 1e-4)
    curves = met_sweep(
        ("omp_task", "cilk_spawn"), grains,
        pattern="stencil", width=4, steps=3, nthreads=4, ctx=ctx,
    )
    for version, pts in curves.items():
        assert [p.grain for p in pts] == sorted(grains)
        for p in pts:
            assert p.overhead > 0.0
            assert 0.0 < p.efficiency <= 1.0
        # growing the grain amortizes per-task overhead away
        assert pts[-1].overhead < pts[0].overhead


def test_met_sweep_tier0_estimates(ctx):
    curves = met_sweep(
        ("omp_task",), (1e-5,),
        pattern="stencil", width=4, steps=3, nthreads=4, ctx=ctx, fidelity=0,
    )
    (pt,) = curves["omp_task"]
    assert pt.time > 0 and pt.ideal > 0


# ---------------------------------------------------------------------------
# goldens: serial run == committed trace == jobs=2 parallel sweep
# ---------------------------------------------------------------------------
#: Two small graphs, both thread counts: a stencil grid on OpenMP's
#: locked deques and a fork/join tree on Cilk's THE deques.
GOLDEN_CASES = [
    ("omp_task", {"pattern": "stencil", "width": 4, "steps": 3, "grain": 1e-6}),
    ("cilk_spawn", {"pattern": "tree", "width": 4, "steps": 4, "grain": 1e-6}),
]

GOLDEN_IDS = [f"{params['pattern']}-{version}" for version, params in GOLDEN_CASES]


def golden_path(version: str, pattern: str, nthreads: int) -> pathlib.Path:
    return GOLDEN_DIR / f"taskbench_{pattern}_{version}_p{nthreads}.json"


def serial_payload(version: str, params: dict, nthreads: int) -> dict:
    ctx = ExecContext()
    prog = get_workload("taskbench").build(version, ctx.machine, **params)
    res = run_program(prog, nthreads, ctx, version, trace=True)
    return {
        "workload": "taskbench",
        "version": version,
        "nthreads": nthreads,
        "params": dict(params),
        "time": res.time,
        "trace": tracer_to_dict(res.trace),
    }


@pytest.mark.parametrize("nthreads", [1, 4], ids=["p1", "p4"])
@pytest.mark.parametrize("version,params", GOLDEN_CASES, ids=GOLDEN_IDS)
def test_serial_run_matches_golden(version, params, nthreads, update_goldens):
    payload = serial_payload(version, params, nthreads)
    path = golden_path(version, params["pattern"], nthreads)
    if update_goldens:
        GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
        pytest.skip(f"updated {path.name}")
    if not path.exists():
        pytest.fail(
            f"missing golden {path}; generate with "
            "`pytest tests/test_taskgraph.py --update-goldens`"
        )
    assert payload == json.loads(path.read_text())


@pytest.mark.parametrize("version,params", GOLDEN_CASES, ids=GOLDEN_IDS)
def test_parallel_sweep_matches_golden(version, params, update_goldens):
    if update_goldens:
        pytest.skip("golden update run")
    sweep = run_sweep(
        "taskbench", versions=[version], threads=(1, 4), params=params,
        jobs=2, trace=True,
    )
    for p in (1, 4):
        golden = json.loads(golden_path(version, params["pattern"], p).read_text())
        res = sweep.results[(version, p)]
        assert res.time == golden["time"]
        assert tracer_to_dict(res.trace) == golden["trace"]


def test_goldens_pin_parallel_execution():
    """The p=4 goldens must show real multi-worker interleaving (a
    single-worker trace would pin nothing about the scheduler)."""
    for version, params in GOLDEN_CASES:
        golden = json.loads(golden_path(version, params["pattern"], 4).read_text())
        # codec spans are [worker, start, end, kind, tag, ...] rows
        workers = {s[0] for s in golden["trace"]["spans"]}
        assert len(workers) > 1, (version, params["pattern"])
        assert golden["time"] > 0
