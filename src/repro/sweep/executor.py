"""Parallel sweep executor with write-through result caching.

:func:`run_sweep` is the engine behind :func:`repro.core.experiment.run_experiment`
and the ``repro sweep`` CLI.  It expands an experiment matrix into
independent :class:`~repro.sweep.cells.SweepCell` instances.  A cell
whose content address (:func:`~repro.sweep.cache.cache_key`) resolves
in the cache is decoded without running.  Every miss goes through one
cell runner, :func:`_run_cell`, which simulates the cell (fidelity 2)
or estimates it in closed form (fidelity 0).  It runs in-process
(``jobs <= 1``, tier 0, or no ``fork``), or in :class:`MissRunner`'s
fork pool, the one miss runner, which the sweep service
(:mod:`repro.serve.server`) shares; its workers run :func:`_cell_entry`
and return the entry's file bytes.  Each miss is encoded once, in the
process that ran it; the local sweep stores those bytes as they are
and decodes their body like a hit.

The fidelity (:mod:`repro.sim.tiers`) is part of the cell's cache
address and is stamped into the stored document, so an estimate can
never be replayed as a simulation.

In-process, pooled and replayed cells are bit-identical: the simulator
is deterministic, and the JSON codec round-trips floats exactly, so a
parallel or replayed sweep produces the same times, worker statistics
and trace events as a serial one (enforced by
``tests/test_golden_traces.py`` and ``tests/test_sweep_executor.py``).

Completed cells are written through to the cache *as they finish*, so
an interrupted sweep resumes deterministically: re-running it replays
the finished cells and simulates only the missing ones.  A store that
cannot be written (full or read-only disk) loses the entry, not the
result, as in serve: the cell settles and the failed write counts as
``cache.store_error`` on the host recording.  Failures that
the sweep semantics expect (:class:`~repro.runtime.base.ThreadExplosionError`,
the paper's C++11 fib hang) are recorded — and cached — as cell errors
without poisoning the worker pool.  A worker that dies (OOM kill,
SIGKILL) breaks the pool: the runner replaces it once per broken pool
(``fanout.pool_broken`` locally, ``serve.pool_broken`` in serve) and
retries each cell it failed once.  A second failure, like any other
exception in a worker, reaches the caller through the cell's future
as a ``RuntimeError`` chained from the original.

Progress and accounting go through one
:class:`~repro.obs.metrics.MetricsRegistry`: ``sweep_cells``,
``cache_hits`` / ``cache_misses`` / ``cache_stores`` /
``cache_evictions``, ``simulations`` and ``sweep_errors`` counters,
plus the merged per-run metrics of every successful cell.

Host telemetry (:mod:`repro.perf`) is threaded through every phase:
the whole sweep runs under one perf recording whose snapshot is
attached as ``SweepResult.perf``, with named spans for cache keying
and probes (``cache.*``), parent-side encode/decode (``codec.*``),
in-process simulation/estimation (``cell.*``) and process-pool fan-out
(``fanout.*``) — the vocabulary ``repro perf report`` attributes host
wall time in.  With ``REPRO_PERF_OFF=1`` (or outside any recording)
all of it is inert and results are bit-identical.
"""

from __future__ import annotations

import concurrent.futures
import functools
import json
import multiprocessing
import os
import threading
import time
from concurrent.futures.process import BrokenProcessPool
from time import perf_counter, process_time
from typing import Any, Callable, Mapping, Optional, Sequence, Union

from repro.core.experiment import PAPER_THREADS, ExperimentConfig, SweepResult
from repro.core.registry import get_workload
from repro.faults.policy import RegionFailedError
from repro.obs.metrics import MetricsRegistry, result_metrics
from repro.perf.spans import PerfRecorder
from repro.perf.spans import counter as perf_count
from repro.perf.spans import current as perf_current
from repro.perf.spans import recording as perf_recording
from repro.perf.spans import span as perf_span
from repro.runtime.base import ExecContext, ThreadExplosionError
from repro.runtime.run import run_program
from repro.sim.tiers import estimate_program
from repro.sim.trace import SimResult
from repro.sweep import codec
from repro.sweep.cache import ResultCache, cache_key, encode_entry, entry_body, entry_stamps
from repro.sweep.cells import SweepCell, expand_cells

__all__ = ["PAYLOAD_FORMAT", "SERVER_ENV", "run_sweep"]

#: Version stamp of the cached cell payload layout.
PAYLOAD_FORMAT = 1

#: The context of a sweep that names none.  Contexts are immutable, and
#: building one validates every cost constant, which would otherwise be
#: tens of microseconds of unattributed host time per sweep.
_DEFAULT_CONTEXT = ExecContext()

#: Counters every sweep, local or served, registers before it runs, so
#: exported snapshots always carry the full schema (a fully cached sweep
#: still reports ``simulations: 0`` rather than omitting the counter).
SWEEP_COUNTERS = ("sweep_cells", "cache_hits", "cache_misses", "cache_stores",
                  "cache_evictions", "simulations", "estimates", "sweep_errors")

#: ``progress`` callback signature: (done, total, cell, status) with
#: status one of "hit", "run", "error".
ProgressFn = Callable[[int, int, SweepCell, str], None]

#: Environment variable naming the sweep service to route through.
SERVER_ENV = "REPRO_SWEEP_SERVER"


# ---------------------------------------------------------------------------
# the cell runner
# ---------------------------------------------------------------------------
def _run_cell(
    cell: SweepCell,
    ctx: ExecContext,
    trace: bool,
    validate: bool,
    metrics: Optional[MetricsRegistry] = None,
) -> tuple[Optional[SimResult], Optional[str]]:
    """Build one cell's program and simulate (fidelity 2) or estimate it (0).

    Returns ``(result, None)``, or ``(None, message)`` for the failures
    the sweep expects: :class:`ThreadExplosionError` (the paper's C++11
    fib hang; tier 0 raises it past the thread cap exactly as tier 2
    does) and :class:`RegionFailedError`.  Anything else propagates.
    The result's metrics are merged into ``metrics`` when one is given.
    ``run_program`` is resolved through this module's namespace, so test
    harnesses can interpose on every simulated cell by patching
    ``repro.sweep.executor.run_program``.
    """
    spec = get_workload(cell.workload)
    try:
        program = spec.build(cell.version, ctx.machine, **cell.params)
        if cell.fidelity == 0:
            res = estimate_program(program, cell.nthreads, ctx, cell.version)
        else:
            res = run_program(
                program,
                cell.nthreads,
                ctx,
                cell.version,
                validate=validate,
                trace=trace,
                faults=cell.faults,
                policy=cell.policy,
            )
    except (ThreadExplosionError, RegionFailedError) as exc:
        return None, str(exc)
    if metrics is not None:
        metrics.merge(result_metrics(res))
    return res, None


def _cell_entry(cell: SweepCell, ctx: ExecContext, trace: bool, validate: bool
                ) -> tuple[bytes, bool, float]:
    """Run one cell and return its cache entry: the :func:`encode_entry`
    bytes of its document, whether the entry records a cell error, and
    the ``time.monotonic()`` at which the cell started.

    The one entry point of :class:`MissRunner`: the result is encoded
    once, where it ran, into the bytes the caller stores and whose body
    serve streams; an unexpected exception reaches the caller's future.
    The monotonic clock is system-wide on Linux, so a pool worker's start
    stamp and the submitter's clock agree: their difference is the
    cell's queue wait for a pool slot.
    """
    started = time.monotonic()
    res, err = _run_cell(cell, ctx, trace, validate)
    return encode_entry(_encode_entry(cell, res, err, trace)), err is not None, started


class MissRunner:
    """The one miss runner of the local sweep and the sweep service.

    :meth:`submit` runs :func:`_cell_entry` and returns a future of the
    entry bytes, is-error flag and start stamp.  Tier-2 cells run in a
    fork-based ``ProcessPoolExecutor`` of ``jobs`` workers, created on
    first use; tier-0 estimates, and every cell without ``fork``, run in
    a thread.

    The dead-worker rule: a dead worker (OOM kill, SIGKILL) breaks its
    pool for good.  The first cell to see a broken pool drops it, so the
    next attempt starts a fresh one, and counts ``broken_counter`` on
    ``perf``; each cell the pool failed is retried once.  A second
    failure, like any other exception, resolves the future with a
    ``RuntimeError`` chained from it.  The submitting thread and the
    pool's callback thread both reach the pool: it changes under a lock.
    """

    def __init__(self, jobs: int, perf: Optional[PerfRecorder], broken_counter: str) -> None:
        self._jobs = jobs
        self._perf = perf
        self._broken_counter = broken_counter
        self._lock = threading.Lock()
        self._pool: Optional[concurrent.futures.ProcessPoolExecutor] = None
        self._threads: Optional[concurrent.futures.ThreadPoolExecutor] = None
        self._closed = False

    def submit(self, cell: SweepCell, ctx: ExecContext, trace: bool, validate: bool = False
               ) -> concurrent.futures.Future:
        future: concurrent.futures.Future = concurrent.futures.Future()
        future.set_running_or_notify_cancel()  # only the runner settles it
        self._attempt(future, (cell, ctx, trace, validate), retry=True)
        return future

    def shutdown(self, wait: bool = True) -> None:
        """Stop both executors, cancelling the cells not yet started."""
        with self._lock:
            self._closed = True
            executors = [e for e in (self._pool, self._threads) if e is not None]
        for executor in executors:
            executor.shutdown(wait=wait, cancel_futures=True)

    def _executor(self, fidelity: int) -> concurrent.futures.Executor:
        with self._lock:
            if self._closed:
                raise RuntimeError("the miss runner is shut down")
            if fidelity == 2 and self._pool is None and (fork := _pool_context()):
                self._pool = concurrent.futures.ProcessPoolExecutor(self._jobs, mp_context=fork)
            if fidelity == 2 and self._pool is not None:
                return self._pool
            if self._threads is None:
                self._threads = concurrent.futures.ThreadPoolExecutor()
            return self._threads

    def _attempt(self, future: concurrent.futures.Future, args: tuple, retry: bool) -> None:
        pool = None
        try:
            pool = self._executor(args[0].fidelity)
            attempt = pool.submit(_cell_entry, *args)
        except Exception as exc:  # a pool found broken (or shut down) at submit
            attempt = concurrent.futures.Future()
            attempt.set_exception(exc)
        attempt.add_done_callback(functools.partial(self._settle, future, pool, args, retry))

    def _settle(self, future: concurrent.futures.Future, pool, args: tuple, retry: bool,
                attempt: concurrent.futures.Future) -> None:
        try:
            future.set_result(attempt.result())
        except Exception as exc:
            if isinstance(exc, BrokenProcessPool):
                with self._lock:
                    if self._pool is pool:  # once per broken pool
                        self._pool = None
                        if self._perf is not None:
                            self._perf.count(self._broken_counter)
                if retry:
                    return self._attempt(future, args, retry=False)
            err = RuntimeError(f"sweep cell {args[0].describe()} failed in worker: "
                               f"{type(exc).__name__}: {exc}")
            err.__cause__ = exc
            future.set_exception(err)


# ---------------------------------------------------------------------------
# cache payloads
# ---------------------------------------------------------------------------
def _encode_entry(
    cell: SweepCell, res: Optional[SimResult], err: Optional[str], trace: bool
) -> dict[str, Any]:
    doc: dict[str, Any] = {
        "format": PAYLOAD_FORMAT,
        "workload": cell.workload,
        "version": cell.version,
        "nthreads": cell.nthreads,
        "params": dict(cell.params),
    }
    if cell.fidelity != 2:
        doc["fidelity"] = cell.fidelity
    if err is not None:
        doc["error"] = err
    else:
        assert res is not None
        doc["result"] = codec.result_to_dict(res, with_trace=trace)
    return doc


def _entry_usable(stamps: dict[str, Any], fidelity: int = 2) -> bool:
    """Whether an entry with these stamps may answer a request of tier
    ``fidelity``: the stamp checks, without decoding the result.

    ``stamps`` is an entry's header, or the
    :func:`~repro.sweep.cache.entry_stamps` of its document: the current
    ``format``, the requested ``fidelity``, and a ``result`` or an
    ``error``.

    A payload stamped with a different tier is refused even though
    tiers already address distinct cache keys — a belt-and-braces guard
    so a tier-0 estimate can never be served for a tier-2 request
    (copied cache files, key collisions, hand-edited entries).  The
    local sweep decodes what passes; the sweep service streams it.
    """
    return (
        stamps.get("format") == PAYLOAD_FORMAT
        and stamps.get("fidelity") == fidelity
        and stamps.get("kind") in ("result", "error")
    )


def _decode_entry(
    payload: dict[str, Any], fidelity: int = 2
) -> Optional[tuple[Optional[SimResult], Optional[str]]]:
    """Decode a cached payload; ``None`` means unusable (treat as miss).

    ``fidelity`` is the tier of the *requesting* cell (see
    :func:`_entry_usable`).
    """
    if not _entry_usable(entry_stamps(payload), fidelity):
        return None
    if "error" in payload:
        return None, str(payload["error"])
    return codec.result_from_dict(payload["result"]), None


def _coerce_cache(
    cache: Union[None, bool, str, os.PathLike, ResultCache]
) -> Optional[ResultCache]:
    if cache is None or cache is False:
        return None
    if cache is True:
        return ResultCache()
    if isinstance(cache, (str, os.PathLike)):
        return ResultCache(cache)
    return cache


def _pool_context():
    """The fork multiprocessing context, or ``None`` when unavailable.

    Fork is required so worker processes inherit the already-imported
    package (and any test-time state) without re-importing through
    ``spawn``; without it a local sweep runs serially, serve in threads.
    """
    if "fork" not in multiprocessing.get_all_start_methods():
        return None
    return multiprocessing.get_context("fork")


# ---------------------------------------------------------------------------
# the executor
# ---------------------------------------------------------------------------
def run_sweep(
    workload: str,
    versions: Optional[Sequence[str]] = None,
    threads: Sequence[int] = PAPER_THREADS,
    ctx: Optional[ExecContext] = None,
    *,
    params: Optional[Mapping[str, Any]] = None,
    jobs: int = 1,
    cache: Union[None, bool, str, os.PathLike, ResultCache] = None,
    refresh: bool = False,
    trace: bool = False,
    validate: bool = False,
    faults=None,
    policy=None,
    fidelity: Union[None, int, str] = None,
    server: Optional[str] = None,
    metrics: Optional[MetricsRegistry] = None,
    progress: Optional[ProgressFn] = None,
) -> SweepResult:
    """Run one workload's full sweep, parallel and/or cached.

    Parameters
    ----------
    jobs:
        Worker process count.  ``1`` (the default) runs in-process —
        exactly the legacy serial loop; ``> 1`` fans cells out over a
        fork-based :class:`~concurrent.futures.ProcessPoolExecutor`
        (falling back to serial when the platform lacks fork).
    cache:
        ``None``/``False`` disables caching; ``True`` uses
        :data:`~repro.sweep.cache.DEFAULT_CACHE_DIR`; a path or
        :class:`~repro.sweep.cache.ResultCache` selects a directory.
        Completed cells (including expected errors) are written through
        as they finish, which is also the resume mechanism.
    refresh:
        Ignore existing entries (every cell re-simulates and overwrites
        its entry) — the ``--refresh`` escape hatch.
    trace:
        Simulate every cell with the observability tracer attached (and
        cache the full event streams with the results).
    validate:
        Run the PR 1 invariant audit on every simulated cell.
    faults, policy:
        A fault-injection plan (:class:`~repro.faults.FaultPlan`, spec
        string, or dict) and recovery policy
        (:class:`~repro.faults.Policy` or dict) applied to every cell.
        Both enter the cell's content address, so fault-injected and
        fault-free sweeps never share cache entries; a region failing
        past its retry budget under ``on_failure="raise"`` is recorded
        (and cached) as a cell error, like the modelled C++11 hang.
    fidelity:
        Simulation fidelity tier (:mod:`repro.sim.tiers`).  ``None``
        (the default) inherits ``ctx.fidelity`` (tier 2 for a default
        context); ``2`` is the discrete-event simulation, ``0`` the
        closed-form analytic estimator (cells return
        :class:`~repro.sim.tiers.Tier0Result` with calibrated error
        bounds, always in-process — estimates are far cheaper than
        process fan-out).  ``"auto"`` picks tier 0 for plain timing
        sweeps and tier 2 whenever exact event semantics are required
        (tracing, validation, or fault injection).  Requesting tier 0
        *explicitly* together with those options is a ``ValueError`` —
        an estimate has no events to trace, audit or fault.  The tier
        enters the cell's content address (tier 2 keeps its pre-tiers
        address), so tiers never share cache entries.
    server:
        Route the whole sweep through a running sweep service
        (:mod:`repro.serve`) at this URL instead of executing locally;
        ``None`` falls back to the ``REPRO_SWEEP_SERVER`` environment
        variable, and empty/unset means local execution.  The service
        owns the store and the worker pool, so ``jobs`` and ``cache``
        are ignored in server mode; results are byte-identical to the
        local path (same codec, same cache-entry documents).
        Validation and fault injection are not part of protocol v1 and
        raise ``ValueError`` when combined with a server.
    metrics:
        Registry to account into (one is created when omitted); it is
        attached to the returned sweep as ``SweepResult.metrics``.
    progress:
        Callback ``(done, total, cell, status)`` invoked as each cell
        settles, with status ``"hit"``, ``"run"`` or ``"error"``.
    """
    spec = get_workload(workload)
    if versions is None:
        versions = spec.versions
    else:
        versions = tuple(versions)
        for v in versions:
            if v not in spec.versions:
                raise ValueError(f"{workload} has no version {v!r}")
    ctx = ctx or _DEFAULT_CONTEXT
    config = ExperimentConfig(
        workload, tuple(versions), tuple(threads), dict(params or {})
    )
    fault_doc = policy_doc = None
    if faults is not None or policy is not None:
        # canonicalize up front: unknown kinds/keys fail here, before
        # any simulation, and the dict forms feed the cache key
        from repro.faults.plan import FaultPlan
        from repro.faults.policy import Policy

        plan = FaultPlan.coerce(faults)
        pol = Policy.coerce(policy)
        fault_doc = plan.to_dict() if plan else None
        policy_doc = pol.to_dict() if pol is not None else None
    needs_events = bool(trace) or bool(validate) or fault_doc is not None or policy_doc is not None
    if fidelity is None:
        fid = ctx.fidelity
    elif fidelity == "auto":
        fid = 2 if needs_events else 0
    elif fidelity in (0, 2):
        fid = int(fidelity)
    else:
        raise ValueError(f"fidelity must be 'auto', 0 or 2, got {fidelity!r}")
    if fid == 0 and needs_events:
        raise ValueError(
            "fidelity=0 is an analytic estimate with no event stream; "
            "tracing, validation and fault injection need fidelity 2 "
            "(or fidelity='auto' to pick for you)"
        )
    if server is None:
        server = os.environ.get(SERVER_ENV) or None
    if server:
        if validate or fault_doc is not None or policy_doc is not None:
            raise ValueError(
                "server mode (repro.serve protocol v1) does not carry "
                "validation or fault injection; run those sweeps locally"
            )
        from repro.serve.client import run_sweep_remote

        return run_sweep_remote(
            workload,
            versions,
            threads,
            ctx,
            params=params,
            fidelity=fid,
            trace=trace,
            refresh=refresh,
            server=server,
            metrics=metrics,
            progress=progress,
        )
    if ctx.fidelity != fid:
        ctx = ctx.with_fidelity(fid)
    reg = metrics if metrics is not None else MetricsRegistry()
    store = _coerce_cache(cache)

    (n_cells, n_hits, n_misses, n_stores, n_evictions, n_simulations, n_estimates,
     n_errors) = [reg.counter(name) for name in SWEEP_COUNTERS]

    # Host telemetry (repro.perf): the whole sweep runs inside one
    # recording whose snapshot lands on ``SweepResult.perf``.  With
    # ``REPRO_PERF_OFF=1`` the recorder is None and every perf_span /
    # perf_count below is a no-op — the simulation itself never sees
    # any of this, so instrumented and uninstrumented sweeps are
    # bit-identical.
    with perf_recording("sweep") as host:
        cells = expand_cells(config, fault_doc, policy_doc, fid)
        n_cells.inc(len(cells))
        keys = []
        if store is not None:
            with perf_span("cache.key"):
                keys = [cache_key(c, ctx, trace=trace) for c in cells]

        #: per-cell outcome: (SimResult | None, error message | None)
        outcomes: list[Optional[tuple[Optional[SimResult], Optional[str]]]]
        outcomes = [None] * len(cells)
        total = len(cells)
        done = 0

        def settle(i: int, res: Optional[SimResult], err: Optional[str], status: str,
                   merge: bool) -> None:
            nonlocal done
            outcomes[i] = (res, err)
            done += 1
            if err is not None:
                n_errors.inc()
                status = "error"
            elif merge and res is not None:
                reg.merge(result_metrics(res))
            if progress is not None:
                progress(done, total, cells[i], status)

        # -- phase 1: cache probe ------------------------------------------
        if store is None:
            pending = list(range(len(cells)))
        else:
            pending = []
            for i in range(len(cells)):
                if not refresh:
                    with perf_span("cache.probe"):
                        payload = store.get(keys[i])
                    if payload is not None:
                        with perf_span("codec.decode"):
                            decoded = _decode_entry(payload, fid)
                    else:
                        decoded = None
                    if decoded is not None:
                        n_hits.inc()
                        perf_count("cache.hit")
                        settle(i, decoded[0], decoded[1], "hit", merge=True)
                        continue
                    perf_count("cache.miss")
                    if payload is not None or store.refused(keys[i]):
                        # a stored entry its framing (flipped byte, truncated,
                        # headerless) or its stamps (stale format, wrong tier)
                        # refused — re-simulated and overwritten below
                        perf_count("cache.corrupt")
                n_misses.inc()
                pending.append(i)

        n_runs = n_estimates if fid == 0 else n_simulations

        def finish(i: int, res: Optional[SimResult], err: Optional[str],
                   entry: Union[None, dict[str, Any], bytes] = None,
                   merge: bool = False) -> None:
            n_runs.inc()
            if store is not None:
                if entry is None:
                    with perf_span("codec.encode"):
                        entry = _encode_entry(cells[i], res, err, trace)
                try:
                    with perf_span("cache.store"):
                        store.put(keys[i], entry)
                except OSError:
                    perf_count("cache.store_error")
                else:
                    n_stores.inc()
            settle(i, res, err, "run", merge=merge)

        # -- phase 2: simulate (or estimate) the misses --------------------
        # Tier-0 estimates cost microseconds, less than a process hop, so
        # they always run in-process, as does a single pending cell.
        if fid == 2 and jobs > 1 and len(pending) > 1 and _pool_context() is not None:
            with perf_span("fanout.pool"):
                runner = MissRunner(min(jobs, len(pending)), perf_current(),
                                    "fanout.pool_broken")
            try:
                with perf_span("fanout.submit"):
                    futures = {runner.submit(cells[i], ctx, trace, validate): i for i in pending}
                completed = concurrent.futures.as_completed(futures)
                while True:
                    with perf_span("fanout.wait"):
                        fut = next(completed, None)
                    if fut is None:
                        break
                    i = futures[fut]
                    data = fut.result()[0]
                    # the worker's bytes are stored as they are and their
                    # body is decoded once, like a cache hit
                    with perf_span("codec.decode"):
                        res, err = _decode_entry(json.loads(bytes(entry_body(data))), fid)
                    finish(i, res, err, data, merge=True)
            finally:
                with perf_span("fanout.pool"):
                    runner.shutdown()
        else:
            # one clock pair around each cell, and the cell spans are
            # folded into the recording after the loop: no recorder code
            # runs between two simulations
            timings: list[tuple[float, float]] = []
            try:
                for i in pending:
                    t0 = perf_counter()
                    c0 = process_time()
                    # _run_cell merges the run's metrics into the sweep registry
                    res, err = _run_cell(cells[i], ctx, trace, validate, reg)
                    timings.append((perf_counter() - t0, process_time() - c0))
                    finish(i, res, err)
            finally:
                if host is not None:
                    span = "cell.estimate" if fid == 0 else "cell.simulate"
                    for wall, cpu in timings:
                        host.add_span(span, wall, cpu)

        # -- phase 3: assemble + housekeeping ------------------------------
        sweep = SweepResult(config=config, figure=spec.figure, metrics=reg)
        for cell, (res, err) in zip(cells, outcomes):
            if err is not None:
                sweep.errors[cell.key] = err
            elif res is not None:
                sweep.results[cell.key] = res
        _fill_series(sweep)
        if store is not None and (
            store.max_entries is not None or store.ttl_seconds is not None
        ):
            with perf_span("cache.prune"):
                evicted = store.prune()
            n_evictions.inc(evicted)
    if host is not None:
        sweep.perf = host.snapshot()
    return sweep


def _fill_series(sweep: SweepResult) -> None:
    """Set each version's time series from the settled results: one
    entry per thread count, ``None`` where the cell errored."""
    for v in sweep.config.versions:
        sweep.series[v] = [
            sweep.results[(v, p)].time if (v, p) in sweep.results else None
            for p in sweep.config.threads
        ]
