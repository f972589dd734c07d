"""Executor tests: serial ≡ parallel ≡ cached, and shared-cache safety.

Covers the sweep subsystem's behavioural contract beyond the golden
traces: bit-identical results across ``jobs`` settings for every
registered workload, expected failures (``ThreadExplosionError``)
recorded without poisoning the process pool, concurrent executors
sharing one cache directory without corruption, corrupt entries
repaired as misses, ``refresh`` and resume semantics, the serial
fallback when fork is unavailable, and one fault harness (a killed
worker, a cell that kills every worker, a failing store) run over both
miss paths: the local pool and the sweep service.
"""

from __future__ import annotations

import json
import os
import signal
import threading
import types
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.core.registry import WORKLOADS
from repro.obs.metrics import MetricsRegistry
from repro.sweep import ResultCache, codec, run_sweep
from repro.sweep import cache as cache_mod
from repro.sweep import executor as executor_mod
from repro.sweep.codec import result_to_dict

SMALL_THREADS = (1, 4)


def sweep_fingerprint(sweep, *, trace=False):
    """Full-fidelity comparable form of a sweep (exact floats included)."""
    return {
        "series": sweep.series,
        "errors": dict(sweep.errors),
        "results": {
            f"{v}-p{p}": result_to_dict(res, with_trace=trace)
            for (v, p), res in sorted(sweep.results.items())
        },
    }


# ---------------------------------------------------------------------------
# serial ≡ parallel, over the whole registry
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_parallel_matches_serial_for_every_workload(workload):
    spec = WORKLOADS[workload]
    params = dict(spec.validation_params or spec.default_params)
    serial = run_sweep(workload, threads=SMALL_THREADS, params=params, jobs=1)
    fanned = run_sweep(workload, threads=SMALL_THREADS, params=params, jobs=4)
    assert sweep_fingerprint(serial) == sweep_fingerprint(fanned)


def test_parallel_merges_same_metrics_as_serial():
    serial = run_sweep("fib", versions=["cilk_spawn"], threads=SMALL_THREADS,
                       params={"n": 10}, jobs=1)
    fanned = run_sweep("fib", versions=["cilk_spawn"], threads=SMALL_THREADS,
                       params={"n": 10}, jobs=2)
    for name in ("tasks", "steals", "simulations", "sweep_cells"):
        assert serial.counter(name) == fanned.counter(name), name


# ---------------------------------------------------------------------------
# expected failures don't poison the pool
# ---------------------------------------------------------------------------
def test_thread_explosion_recorded_not_raised_parallel():
    sweep = run_sweep("fib", threads=SMALL_THREADS, params={"n": 22}, jobs=2)
    # cxx_async spawns a thread per task and blows the thread cap...
    for p in SMALL_THREADS:
        assert ("cxx_async", p) in sweep.errors
        assert ("cxx_async", p) not in sweep.results
    # ...while its pool-mates complete normally in the same sweep.
    for p in SMALL_THREADS:
        assert ("omp_task", p) in sweep.results
        assert ("cilk_spawn", p) in sweep.results
    assert sweep.counter("sweep_errors") == len(SMALL_THREADS)
    assert sweep.series["cxx_async"] == [None] * len(SMALL_THREADS)


def test_thread_explosion_errors_identical_serial_vs_parallel():
    kwargs = dict(threads=SMALL_THREADS, params={"n": 22})
    serial = run_sweep("fib", jobs=1, **kwargs)
    fanned = run_sweep("fib", jobs=2, **kwargs)
    assert serial.errors == fanned.errors


def test_thread_explosion_is_cached_and_replayed(tmp_path):
    kwargs = dict(
        versions=["cxx_async"], threads=(1,), params={"n": 22}, cache=tmp_path
    )
    first = run_sweep("fib", **kwargs)
    assert first.counter("simulations") == 1
    assert ("cxx_async", 1) in first.errors
    replay = run_sweep("fib", **kwargs)
    assert replay.counter("simulations") == 0
    assert replay.counter("cache_hits") == 1
    assert replay.errors == first.errors


def test_unexpected_worker_crash_raises_in_parent():
    with pytest.raises(RuntimeError, match="failed in worker") as excinfo:
        run_sweep("fib", versions=["cilk_spawn"], threads=SMALL_THREADS,
                  params={"n": 10, "bogus_param": 1}, jobs=2)
    # the worker's own exception is chained, not flattened into text
    assert isinstance(excinfo.value.__cause__, TypeError)
    assert "bogus_param" in str(excinfo.value.__cause__)


def test_pooled_misses_are_not_encoded_in_the_parent(tmp_path, monkeypatch):
    """Pool workers return finished cache-entry documents: the parent
    stores them as they are instead of encoding each result again."""
    parent = os.getpid()
    real = codec.result_to_dict
    parent_calls = []

    def counting(res, with_trace=True):
        if os.getpid() == parent:
            parent_calls.append(res)
        return real(res, with_trace=with_trace)

    monkeypatch.setattr(codec, "result_to_dict", counting)
    sweep = run_sweep("fib", versions=["cilk_spawn", "omp_task"],
                      threads=SMALL_THREADS, params={"n": 10}, jobs=2, cache=tmp_path)
    assert sweep.counter("simulations") == sweep.counter("cache_stores") == 4
    assert parent_calls == []
    assert len(ResultCache(tmp_path)) == 4


# ---------------------------------------------------------------------------
# shared cache directory: concurrency and corruption
# ---------------------------------------------------------------------------
def test_concurrent_executors_share_cache_without_corruption(tmp_path):
    """Two executors racing on one cache directory (same cells, so every
    write races on the same keys) leave only complete, decodable entries
    and agree on the results."""
    kwargs = dict(
        versions=["cilk_spawn", "omp_task"],
        threads=SMALL_THREADS,
        params={"n": 10},
        cache=tmp_path,
        jobs=2,
    )
    sweeps = [None, None]
    errors = []

    def work(slot):
        try:
            sweeps[slot] = run_sweep("fib", **kwargs)
        except BaseException as exc:  # pragma: no cover - diagnostic
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(slot,)) for slot in (0, 1)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    assert sweep_fingerprint(sweeps[0]) == sweep_fingerprint(sweeps[1])

    cache = ResultCache(tmp_path)
    keys = cache.keys()
    assert len(keys) == 4  # 2 versions x 2 thread counts, no duplicates
    for key in keys:
        payload = cache.get(key)
        assert payload is not None and payload["format"] == 1
    # no staging files leaked by either racer
    assert [p.name for p in tmp_path.iterdir() if p.suffix == ".tmp"] == []

    # a third run is served entirely from the shared cache
    replay = run_sweep("fib", **kwargs)
    assert replay.counter("simulations") == 0
    assert replay.counter("cache_hits") == 4
    assert sweep_fingerprint(replay) == sweep_fingerprint(sweeps[0])


def test_corrupt_entry_is_resimulated_and_repaired(tmp_path):
    kwargs = dict(versions=["cilk_spawn"], threads=(1,), params={"n": 8},
                  cache=tmp_path)
    first = run_sweep("fib", **kwargs)
    cache = ResultCache(tmp_path)
    (key,) = cache.keys()
    entry = cache.path_for(key).read_bytes()
    cache.path_for(key).write_bytes(entry[: len(entry) // 2])  # truncated
    second = run_sweep("fib", **kwargs)
    assert second.counter("simulations") == 1
    assert second.counter("cache_misses") == 1
    assert sweep_fingerprint(second) == sweep_fingerprint(first)
    # the entry was repaired in place
    assert cache.path_for(key).read_bytes() == entry


def test_unknown_payload_format_is_a_miss(tmp_path):
    kwargs = dict(versions=["cilk_spawn"], threads=(1,), params={"n": 8},
                  cache=tmp_path)
    run_sweep("fib", **kwargs)
    cache = ResultCache(tmp_path)
    (key,) = cache.keys()
    entry = cache.get(key)
    entry["format"] = 999
    cache.put(key, entry)  # framed true to its body: only the stamp is stale
    assert key in cache
    again = run_sweep("fib", **kwargs)
    assert again.counter("simulations") == 1
    assert cache.get(key)["format"] == 1


# ---------------------------------------------------------------------------
# refresh / resume / eviction
# ---------------------------------------------------------------------------
def test_refresh_resimulates_everything(tmp_path):
    kwargs = dict(versions=["cilk_spawn"], threads=SMALL_THREADS,
                  params={"n": 8}, cache=tmp_path)
    first = run_sweep("fib", **kwargs)
    assert first.counter("simulations") == 2
    refreshed = run_sweep("fib", refresh=True, **kwargs)
    assert refreshed.counter("simulations") == 2
    assert refreshed.counter("cache_hits") == 0
    assert sweep_fingerprint(refreshed) == sweep_fingerprint(first)


def test_resume_simulates_only_missing_cells(tmp_path):
    kwargs = dict(versions=["cilk_spawn", "omp_task"], threads=SMALL_THREADS,
                  params={"n": 8}, cache=tmp_path)
    first = run_sweep("fib", **kwargs)
    assert first.counter("simulations") == 4
    cache = ResultCache(tmp_path)
    victim = cache.keys()[0]
    cache.path_for(victim).unlink()  # an "interrupted" sweep left a hole
    resumed = run_sweep("fib", **kwargs)
    assert resumed.counter("simulations") == 1
    assert resumed.counter("cache_hits") == 3
    assert sweep_fingerprint(resumed) == sweep_fingerprint(first)


def test_bounded_cache_evicts_and_counts(tmp_path):
    store = ResultCache(tmp_path, max_entries=2)
    sweep = run_sweep("fib", versions=["cilk_spawn", "omp_task"],
                      threads=SMALL_THREADS, params={"n": 8}, cache=store)
    assert sweep.counter("cache_stores") == 4
    assert sweep.counter("cache_evictions") == 2
    assert len(store) == 2


def test_ttl_only_store_expires_after_a_sweep(tmp_path):
    """A store with a TTL and no entry bound is pruned after a sweep,
    as the server prunes it: an entry unused for longer than the
    window is gone."""
    store = ResultCache(tmp_path, ttl_seconds=3600)
    ancient = "ab" * 32
    store.put(ancient, {"format": 1})
    os.utime(store.path_for(ancient), (1, 1))
    sweep = run_sweep("fib", versions=["cilk_spawn"], threads=SMALL_THREADS,
                      params={"n": 8}, cache=store)
    assert sweep.counter("cache_evictions") == 1
    assert ancient not in store
    assert len(store) == len(SMALL_THREADS)


@pytest.mark.parametrize("jobs", [1, 2])
def test_failing_store_loses_the_entry_not_the_result(tmp_path, jobs):
    """A store write that raises ``OSError`` (full or read-only disk)
    loses the entry, not the result, as in serve: every cell settles,
    the failed writes count as ``cache.store_error`` and none as a
    store."""
    kwargs = dict(versions=["cilk_spawn", "omp_task"], threads=SMALL_THREADS,
                  params={"n": 8}, jobs=jobs)
    uncached = run_sweep("fib", cache=None, **kwargs)

    def full_disk(key, payload):
        raise OSError(28, "No space left on device")

    store = ResultCache(tmp_path)
    store.put = full_disk
    sweep = run_sweep("fib", cache=store, **kwargs)
    assert sweep_fingerprint(sweep) == sweep_fingerprint(uncached)
    assert sweep.counter("simulations") == 4
    assert sweep.counter("cache_stores") == 0
    assert sweep.perf["counters"]["cache.store_error"] == 4
    assert len(store) == 0


# ---------------------------------------------------------------------------
# one fault harness for both miss paths: the local pool and the service
# ---------------------------------------------------------------------------
FAULT_KWARGS = dict(versions=["omp_for", "cxx_thread"], threads=(1, 2, 4),
                    params={"n": 120_000}, fidelity=2)
FAULT_CELLS = 6


class MissPath:
    """One way a sweep's misses run, both writing through to ``store``:
    a local ``run_sweep(jobs=2)`` or a sweep served by ``server``."""

    #: where the local sweep counts each failure kind (serve: ``serve.<kind>``)
    LOCAL_COUNTERS = {"pool_broken": "fanout.pool_broken", "store_error": "cache.store_error",
                      "corrupt": "cache.corrupt", "cache_hit": "cache.hit"}

    def __init__(self, store, server=None):
        self.store = store
        self.server = server
        self.last = None

    def sweep(self):
        if self.server is None:
            self.last = run_sweep("axpy", jobs=2, cache=self.store, **FAULT_KWARGS)
        else:
            self.last = run_sweep("axpy", server=self.server.url, **FAULT_KWARGS)
        return self.last

    def counter(self, kind):
        if self.server is None:
            return self.last.perf["counters"].get(self.LOCAL_COUNTERS[kind], 0)
        return self.server.perf.counters.get(f"serve.{kind}", 0)

    def probe(self, key):
        """Whether a sweep would take ``key``'s entry as a hit."""
        if self.server is None:
            return executor_mod._decode_entry(self.store.get(key) or {}) is not None
        return self.server._probe(key, 2)[0] is not None


@pytest.fixture(params=["local", "served"])
def miss_path(request, tmp_path):
    store = ResultCache(tmp_path / "store")
    if request.param == "local":
        yield MissPath(store)
        return
    from tests.test_serve import running_server

    with running_server(store, jobs=2) as srv:
        yield MissPath(store, srv)


def _claim(path) -> bool:
    """True for the first process, of all that call it, to claim ``path``."""
    try:
        os.close(os.open(path, os.O_CREAT | os.O_EXCL))
    except FileExistsError:
        return False
    return True


def test_killed_worker_costs_one_retry(miss_path, tmp_path, monkeypatch):
    """A pool worker killed mid-sweep breaks the pool: it is replaced
    once, the cells it failed are retried, and the sweep completes
    bit-identical to a serial one."""
    reference = run_sweep("axpy", jobs=1, **FAULT_KWARGS)
    parent, real = os.getpid(), executor_mod._run_cell

    def kill_once(cell, ctx, trace, validate, metrics=None):
        if os.getpid() != parent and _claim(tmp_path / "killed"):
            os.kill(os.getpid(), signal.SIGKILL)
        return real(cell, ctx, trace, validate, metrics)

    monkeypatch.setattr(executor_mod, "_run_cell", kill_once)
    assert sweep_fingerprint(miss_path.sweep()) == sweep_fingerprint(reference)
    assert (tmp_path / "killed").exists()
    assert miss_path.counter("pool_broken") == 1
    assert len(miss_path.store) == FAULT_CELLS


def test_cell_that_kills_every_worker_fails_after_one_retry(miss_path, tmp_path, monkeypatch):
    """The retry is once: a cell that kills the fresh pool's worker too
    fails with ``BrokenProcessPool`` (the local sweep raises, serve
    fails only that request and stays healthy)."""
    attempts = tmp_path / "attempts"
    attempts.mkdir()
    real = executor_mod._run_cell

    def killer(cell, ctx, trace, validate, metrics=None):
        if cell.key == ("cxx_thread", 4):
            (attempts / str(os.getpid())).touch()
            os.kill(os.getpid(), signal.SIGKILL)
        return real(cell, ctx, trace, validate, metrics)

    monkeypatch.setattr(executor_mod, "_run_cell", killer)
    if miss_path.server is None:
        with pytest.raises(RuntimeError, match="failed in worker") as excinfo:
            miss_path.sweep()
        assert isinstance(excinfo.value.__cause__, BrokenProcessPool)
    else:
        from repro.serve import ServerError, SweepClient

        with pytest.raises(ServerError, match="BrokenProcessPool"):
            miss_path.sweep()
        client = SweepClient(miss_path.server.url)
        assert client.health()
        other = run_sweep("axpy", server=miss_path.server.url, versions=["omp_for"],
                          threads=(2,), params={"n": 130_000}, fidelity=2)
        assert other.counter("simulations") == 1
    assert len(list(attempts.iterdir())) == 2


def _entry_of(store, version, nthreads):
    """The key and file bytes of the stored ``(version, nthreads)`` cell."""
    mark = b'"version":"%s","nthreads":%d,' % (version.encode(), nthreads)
    (key,) = [k for k in store.keys() if mark in store.path_for(k).read_bytes()]
    return key, store.path_for(key).read_bytes()


def test_flipped_body_byte_is_a_miss_and_rewritten(miss_path):
    """One digit of a stored result's time, flipped in place, keeps the
    file the same length and valid JSON: the body's CRC turns it into a
    miss, counted as a refused (corrupt) entry, the cell re-runs, and its
    entry is rewritten to the original bytes."""
    reference = run_sweep("axpy", jobs=1, **FAULT_KWARGS)
    miss_path.sweep()
    key, entry = _entry_of(miss_path.store, "omp_for", 4)
    at = entry.index(b'"time":') + len(b'"time":')  # the time's first digit
    flipped = entry[:at] + (b"7" if entry[at:at + 1] != b"7" else b"8") + entry[at + 1:]
    miss_path.store.path_for(key).write_bytes(flipped)
    assert json.loads(flipped.split(b"\n", 1)[1]) != json.loads(entry.split(b"\n", 1)[1])
    assert not miss_path.probe(key)
    again = miss_path.sweep()
    assert again.counter("simulations") == 1
    assert again.counter("cache_hits") == FAULT_CELLS - 1
    assert miss_path.counter("corrupt") == 1
    assert sweep_fingerprint(again) == sweep_fingerprint(reference)
    assert miss_path.store.path_for(key).read_bytes() == entry


def test_stale_stamp_counts_one_miss_not_a_hit(miss_path):
    """An entry that is well framed but stamped with an unknown format is
    refused at the caller's stamp check: one probe counts one miss and
    one corrupt entry, never a hit as well."""
    miss_path.sweep()
    key, entry = _entry_of(miss_path.store, "omp_for", 4)
    doc = json.loads(entry.split(b"\n", 1)[1])
    doc["format"] = 999
    miss_path.store.put(key, doc)  # framed true to its body: only the stamp is stale
    assert key in miss_path.store
    hits_before = 0 if miss_path.server is None else miss_path.counter("cache_hit")
    again = miss_path.sweep()
    assert again.counter("simulations") == 1
    assert again.counter("cache_hits") == FAULT_CELLS - 1
    assert miss_path.counter("corrupt") == 1
    if miss_path.server is None:
        counters = again.perf["counters"]
        assert counters["cache.hit"] == FAULT_CELLS - 1
        assert counters["cache.miss"] == 1
    else:
        assert miss_path.counter("cache_hit") - hits_before == FAULT_CELLS - 1


def test_legacy_entries_are_misses_without_a_full_parse(miss_path, monkeypatch):
    """A headerless entry (the bytes a store held before entries had a
    header) and an entry whose first line is longer than the header cap
    are both turned away before anything longer than the cap is parsed,
    and both are re-run and rewritten."""
    miss_path.sweep()
    (old_key, old), (long_key, long) = (_entry_of(miss_path.store, "omp_for", n)
                                        for n in (1, 2))
    head, body = long.split(b"\n", 1)
    pad = b'"pad":"%s",' % (b"x" * cache_mod.HEADER_CAP)
    padded = cache_mod.ENTRY_MARKER + pad + head[len(cache_mod.ENTRY_MARKER):]
    miss_path.store.path_for(old_key).write_bytes(old.split(b"\n", 1)[1])
    miss_path.store.path_for(long_key).write_bytes(padded + b"\n" + body)
    sizes = []

    def recording(data, *args, **kwargs):
        sizes.append(len(data))
        return json.loads(data, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(cache_mod, "json", types.SimpleNamespace(loads=recording,
                                                                dumps=json.dumps))
        for key in (old_key, long_key):
            assert key not in miss_path.store
            assert miss_path.store.read(key) is None
            assert not miss_path.probe(key)
    assert max(sizes, default=0) <= cache_mod.HEADER_CAP
    again = miss_path.sweep()
    assert again.counter("simulations") == 2
    assert miss_path.store.path_for(old_key).read_bytes() == old
    assert miss_path.store.path_for(long_key).read_bytes() == long


def test_failing_store_keeps_every_result(miss_path, monkeypatch):
    """A store whose writes raise ``OSError`` loses the entries, not the
    results, and counts each failed write."""
    reference = run_sweep("axpy", jobs=1, **FAULT_KWARGS)

    def full_disk(key, payload):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(miss_path.store, "put", full_disk)
    assert sweep_fingerprint(miss_path.sweep()) == sweep_fingerprint(reference)
    assert miss_path.counter("store_error") == FAULT_CELLS
    assert len(miss_path.store) == 0


# ---------------------------------------------------------------------------
# executor plumbing
# ---------------------------------------------------------------------------
def test_serial_fallback_when_fork_unavailable(monkeypatch):
    """jobs>1 on a fork-less platform degrades to the serial path, which
    resolves run_program through the executor module (the patch point)."""
    monkeypatch.setattr(executor_mod, "_pool_context", lambda: None)
    calls = []
    real_run_program = executor_mod.run_program

    def spying(*args, **kwargs):
        calls.append(args)
        return real_run_program(*args, **kwargs)

    monkeypatch.setattr(executor_mod, "run_program", spying)
    sweep = run_sweep("fib", versions=["cilk_spawn"], threads=SMALL_THREADS,
                      params={"n": 8}, jobs=4)
    assert len(calls) == 2  # every cell went through the serial path
    assert set(sweep.results) == {("cilk_spawn", 1), ("cilk_spawn", 4)}


def test_rejects_unknown_version():
    with pytest.raises(ValueError, match="no version"):
        run_sweep("fib", versions=["cxx_thread"], threads=(1,), params={"n": 8})


def test_progress_callback_sees_every_cell(tmp_path):
    seen = []
    kwargs = dict(versions=["cilk_spawn"], threads=SMALL_THREADS,
                  params={"n": 8}, cache=tmp_path,
                  progress=lambda done, total, cell, status:
                      seen.append((done, total, cell.key, status)))
    run_sweep("fib", **kwargs)
    assert [s[3] for s in seen] == ["run", "run"]
    assert [s[:2] for s in seen] == [(1, 2), (2, 2)]
    seen.clear()
    run_sweep("fib", **kwargs)
    assert [s[3] for s in seen] == ["hit", "hit"]


def test_explicit_metrics_registry_is_used_and_attached():
    reg = MetricsRegistry()
    sweep = run_sweep("fib", versions=["cilk_spawn"], threads=(1,),
                      params={"n": 8}, metrics=reg)
    assert sweep.metrics is reg
    assert reg.counter("sweep_cells").value == 1
    assert reg.counter("simulations").value == 1
