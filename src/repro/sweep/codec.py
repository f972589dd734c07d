"""Full-fidelity JSON codec for simulation results and traces.

The sweep cache and the process-pool executor both move finished
:class:`~repro.sim.trace.SimResult` objects across a JSON boundary
(to disk, or from a worker process back to the parent).  The codec
round-trips *everything* the simulator recorded — per-region worker
stats, executor meta, and the complete observability trace (spans,
instants, engine events, lock grants) — so that a decoded result is
indistinguishable from a freshly simulated one.

Bit-exactness: Python's ``json`` serializes floats via ``repr``, which
round-trips every finite ``float`` exactly, so simulated times and
event timestamps survive encode/decode unchanged.  The golden-trace
regression suite (``tests/test_golden_traces.py``) holds the whole
pipeline to this guarantee.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.obs.tracer import InstantEvent, SpanEvent, Tracer
from repro.sim.trace import RegionResult, SimResult, WorkerStats

__all__ = [
    "result_from_dict",
    "result_to_dict",
    "tracer_from_dict",
    "tracer_to_dict",
]


# ---------------------------------------------------------------------------
# Tracer
# ---------------------------------------------------------------------------
def tracer_to_dict(tracer: Tracer) -> dict[str, Any]:
    """Canonical JSON-ready form of a tracer's full event streams."""
    return {
        "spans": [
            [s.worker, s.start, s.end, s.kind, s.name, s.region] for s in tracer.spans
        ],
        "instants": [[i.worker, i.time, i.name, i.region] for i in tracer.instants],
        "engine_events": [[t, seq] for t, seq in tracer.engine_events],
        "lock_events": {
            name: [[r, g, h] for r, g, h in grants]
            for name, grants in sorted(tracer.lock_events.items())
        },
        "region_names": list(tracer.region_names),
    }


def tracer_from_dict(data: dict[str, Any]) -> Tracer:
    """Rebuild a :class:`Tracer` whose event streams compare equal to
    the original's (times are already program-absolute, so the decoded
    tracer's offset is zero)."""
    t = Tracer()
    t.spans = [
        SpanEvent(int(w), float(s), float(e), kind, name, int(region))
        for w, s, e, kind, name, region in data["spans"]
    ]
    t.instants = [
        InstantEvent(int(w), float(ts), name, int(region))
        for w, ts, name, region in data["instants"]
    ]
    t.engine_events = [(float(ts), int(seq)) for ts, seq in data["engine_events"]]
    t.lock_events = {
        name: [(float(r), float(g), float(h)) for r, g, h in grants]
        for name, grants in data["lock_events"].items()
    }
    t.region_names = list(data["region_names"])
    t.region = len(t.region_names) - 1
    return t


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------
def _worker_to_list(w: WorkerStats) -> list:
    # the fifth field is the retired `failed_steals` count, always 0; it
    # stays so that stored results keep their bytes until a codec version
    # bump drops it
    return [w.busy, w.overhead, w.tasks, w.steals, 0]


def _worker_from_list(data: list) -> WorkerStats:
    busy, overhead, tasks, steals, _ = data
    return WorkerStats(
        busy=float(busy),
        overhead=float(overhead),
        tasks=int(tasks),
        steals=int(steals),
    )


def _region_to_dict(r: RegionResult) -> dict[str, Any]:
    return {
        "time": r.time,
        "nthreads": r.nthreads,
        "workers": [_worker_to_list(w) for w in r.workers],
        "meta": dict(r.meta),
    }


def _region_from_dict(data: dict[str, Any]) -> RegionResult:
    return RegionResult(
        time=float(data["time"]),
        nthreads=int(data["nthreads"]),
        workers=[_worker_from_list(w) for w in data["workers"]],
        meta=dict(data["meta"]),
    )


def result_to_dict(res: SimResult, with_trace: bool = True) -> dict[str, Any]:
    """Encode a full :class:`SimResult` (regions, worker stats, meta,
    and — when present and requested — its trace).  A tier-0
    :class:`~repro.sim.tiers.Tier0Result` additionally carries its
    calibrated ``error_bound``, which marks the payload as analytic."""
    doc: dict[str, Any] = {
        "program": res.program,
        "version": res.version,
        "nthreads": res.nthreads,
        "time": res.time,
        "regions": [_region_to_dict(r) for r in res.regions],
    }
    bound = getattr(res, "error_bound", None)
    if bound is not None:
        doc["error_bound"] = bound
    if with_trace and res.trace is not None:
        doc["trace"] = tracer_to_dict(res.trace)
    return doc


def result_from_dict(data: dict[str, Any]) -> SimResult:
    """Decode a :class:`SimResult`; times, stats, meta and trace events
    compare equal to the encoded original.  Payloads carrying an
    ``error_bound`` decode as :class:`~repro.sim.tiers.Tier0Result`."""
    trace: Optional[Tracer] = None
    if "trace" in data:
        trace = tracer_from_dict(data["trace"])
    kwargs: dict[str, Any] = dict(
        program=data["program"],
        version=data["version"],
        nthreads=int(data["nthreads"]),
        time=float(data["time"]),
        regions=[_region_from_dict(r) for r in data["regions"]],
        trace=trace,
    )
    if "error_bound" in data:
        from repro.sim.tiers import Tier0Result

        return Tier0Result(error_bound=float(data["error_bound"]), **kwargs)
    return SimResult(**kwargs)
