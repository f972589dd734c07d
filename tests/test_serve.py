"""Tests of the sweep service: protocol, single-flight dedupe, client.

The service's contract is that going remote changes *where* cells
resolve, never *what* resolves: a served sweep is byte-identical to a
local one (same cache-entry payloads, same series/metrics assembly),
a warm server answers without simulating, and two identical in-flight
queries cost one set of simulations (single-flight dedupe, observable
as ``serve.dedup_hit``).
"""

from __future__ import annotations

import asyncio
import contextlib
import http.client
import json
import os
import signal
import socket
import sys
import threading
import time
import types
from urllib.parse import urlsplit

import pytest

from repro.runtime.base import ExecContext
from repro.serve import (
    MatrixQuery,
    ProtocolError,
    ServerError,
    SweepClient,
    SweepServer,
)
from repro.serve import protocol
from repro.serve import server as server_mod
from repro.sweep import ResultCache, codec, run_sweep
from repro.sweep import executor as executor_mod
from repro.sweep.cache import SHARD_WIDTH, encode_entry
from tests.test_sweep_executor import sweep_fingerprint

KWARGS = dict(
    versions=["omp_for", "cxx_thread"], threads=(1, 4), params={"n": 120_000},
    fidelity=2,
)
NCELLS = 4  # 2 versions x 2 thread counts


def http_connection(url, timeout=60):
    """A stdlib ``http.client`` connection to the service at ``url``: an
    HTTP implementation independent of :class:`SweepClient` checks the
    server's framing."""
    parts = urlsplit(url)
    return http.client.HTTPConnection(parts.hostname, parts.port, timeout=timeout)


def raw_lines(url, query):
    """POST ``query`` and return the NDJSON lines exactly as streamed."""
    conn = http_connection(url)
    try:
        conn.request("POST", "/sweep", body=json.dumps(query.to_dict()))
        resp = conn.getresponse()
        assert resp.status == 200
        lines = []
        while not lines or json.loads(lines[-1])["type"] not in ("end", "fatal"):
            line = resp.readline()
            assert line, "stream ended before the 'end' event"
            lines.append(line)
        return lines
    finally:
        conn.close()


def cell_lines(lines):
    return [line for line in lines if json.loads(line)["type"] == "cell"]


@contextlib.contextmanager
def running_server(cache, **kwargs):
    """A SweepServer on its own event-loop thread, closed on exit."""
    loop = asyncio.new_event_loop()
    srv = SweepServer(cache, **kwargs)
    started = threading.Event()

    def runner():
        asyncio.set_event_loop(loop)
        loop.run_until_complete(srv.start())
        started.set()
        loop.run_forever()

    thread = threading.Thread(target=runner, daemon=True)
    thread.start()
    assert started.wait(10), "server failed to start"
    try:
        yield srv
    finally:
        asyncio.run_coroutine_threadsafe(srv.close(), loop).result(10)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(10)
        loop.close()


# ---------------------------------------------------------------------------
# protocol
# ---------------------------------------------------------------------------
class TestProtocol:
    def test_query_round_trips(self):
        query = MatrixQuery("axpy", versions=("omp_for",), threads=(1, 4),
                            params={"n": 10}, fidelity=0, trace=True,
                            refresh=True)
        assert MatrixQuery.from_dict(query.to_dict()) == query

    def test_unknown_fields_rejected(self):
        with pytest.raises(ProtocolError, match="unknown query fields"):
            MatrixQuery.from_dict({"workload": "axpy", "jobs": 4})

    def test_missing_workload_rejected(self):
        with pytest.raises(ProtocolError, match="workload"):
            MatrixQuery.from_dict({"threads": [1]})

    def test_bad_fidelity_rejected(self):
        for fidelity in (1, 3, True, 2.0, "2", None):
            with pytest.raises(ProtocolError, match="fidelity"):
                MatrixQuery("axpy", fidelity=fidelity)

    def test_decode_event_rejects_garbage(self):
        with pytest.raises(ProtocolError, match="undecodable"):
            protocol.decode_event(b"not json\n")
        with pytest.raises(ProtocolError, match="without a type"):
            protocol.decode_event(b'{"no": "type"}\n')

    def test_context_digest_sensitive_to_simulation_inputs(self):
        base = protocol.context_digest(ExecContext())
        assert protocol.context_digest(ExecContext()) == base
        assert protocol.context_digest(ExecContext(seed=7)) != base
        # fidelity is per-query, not part of the server's identity
        assert protocol.context_digest(ExecContext().with_fidelity(0)) == base

    def test_expand_query_matches_run_sweep_validation(self):
        with pytest.raises(ValueError, match="no version"):
            protocol.expand_query(MatrixQuery("axpy", versions=("bogus",)))


# ---------------------------------------------------------------------------
# end-to-end: serve == local
# ---------------------------------------------------------------------------
class TestServeEndToEnd:
    def test_health_and_stats(self, tmp_path):
        with running_server(tmp_path) as srv, SweepClient(srv.url) as client:
            assert client.health()
            stats = client.stats()
            assert stats["store"]["root"] == str(tmp_path)
            assert stats["inflight"] == 0

    def test_dead_server_is_unhealthy(self):
        with SweepClient("http://127.0.0.1:9") as client:
            assert not client.health()

    def test_cold_then_warm_query(self, tmp_path):
        with running_server(tmp_path, jobs=2) as srv:
            cold = run_sweep("axpy", server=srv.url, **KWARGS)
            assert cold.counter("simulations") == NCELLS
            assert cold.counter("cache_hits") == 0
            warm = run_sweep("axpy", server=srv.url, **KWARGS)
            assert warm.counter("simulations") == 0
            assert warm.counter("cache_hits") == NCELLS
            assert sweep_fingerprint(warm) == sweep_fingerprint(cold)
            assert srv.perf.counters["serve.request"] == 2
            assert srv.perf.counters["serve.cache_hit"] == NCELLS
            with SweepClient(srv.url) as client:
                observed = client.stats()["observations"]
            counts = {"serve.request_seconds": 2, "serve.probe_seconds": 2 * NCELLS,
                      "serve.run_seconds": NCELLS, "serve.store_seconds": NCELLS}
            for name, count in counts.items():
                h = observed[name]
                assert h["count"] == count, name
                assert h["min"] <= h["p50"] <= h["p90"] <= h["p99"] <= h["max"], h

    def test_probe_histogram_times_only_the_store_read(self, tmp_path, monkeypatch):
        """``serve.probe_seconds`` observes each store probe once (a cold
        and a warm query probe every cell, a refresh probes none), and
        times only the read and the stamp check: an event loop stalled
        while a probe's thread runs shows in ``serve.request_seconds``."""
        stall = 0.3
        query = MatrixQuery("axpy", versions=("omp_for",), threads=(1, 4),
                            params={"n": 120_000}, fidelity=0)
        refresh = MatrixQuery("axpy", versions=("omp_for",), threads=(1, 4),
                              params={"n": 120_000}, fidelity=0, refresh=True)
        with running_server(tmp_path) as srv:
            loop, real_read = srv._server.get_loop(), srv.cache.read

            def read_with_stalled_loop(key):
                loop.call_soon_threadsafe(time.sleep, stall)
                return real_read(key)

            monkeypatch.setattr(srv.cache, "read", read_with_stalled_loop)
            with SweepClient(srv.url) as client:
                for q in (query, query, refresh):
                    list(client.query(q))
                stats = client.stats()
        probe = stats["observations"]["serve.probe_seconds"]
        assert probe["count"] == 4
        assert stats["counters"]["serve.cache_hit"] == 2
        assert probe["max"] < stall
        assert stats["observations"]["serve.request_seconds"]["max"] >= stall

    def test_queue_wait_is_split_out_of_the_run(self, tmp_path, monkeypatch):
        """``serve.queue_seconds`` observes each miss's wait for a pool
        slot: with the one worker held by a slow cell, the query's second
        cell waits at least as long as the first runs, and that wait is
        part of its ``serve.run_seconds``."""
        hold = 0.4
        real = executor_mod._run_cell

        def slow(cell, ctx, trace, validate, metrics=None):
            time.sleep(hold)
            return real(cell, ctx, trace, validate, metrics)

        monkeypatch.setattr(executor_mod, "_run_cell", slow)
        query = MatrixQuery("axpy", versions=("omp_for",), threads=(1, 4),
                            params={"n": 120_000}, fidelity=2)
        with running_server(tmp_path, jobs=1) as srv:
            with SweepClient(srv.url) as client:
                list(client.query(query))
                observed = client.stats()["observations"]
        queue, run = observed["serve.queue_seconds"], observed["serve.run_seconds"]
        assert queue["count"] == run["count"] == 2
        assert queue["min"] < hold <= queue["max"]
        assert queue["max"] + hold <= run["max"]

    def test_served_sweep_is_byte_identical_to_local(self, tmp_path):
        served_store = tmp_path / "served"
        local_store = tmp_path / "local"
        with running_server(served_store, jobs=2) as srv:
            served = run_sweep("axpy", server=srv.url, **KWARGS)
        local = run_sweep("axpy", cache=local_store, **KWARGS)
        assert sweep_fingerprint(served) == sweep_fingerprint(local)
        # the stores themselves agree file-for-file: same keys, same bytes
        a, b = ResultCache(served_store), ResultCache(local_store)
        assert a.keys() == b.keys() != []
        for key in a.keys():
            assert a.path_for(key).read_bytes() == b.path_for(key).read_bytes()

    def test_server_store_serves_local_sweeps_too(self, tmp_path):
        """One store, reached both ways: entries written by the server
        are hits for a direct local sweep."""
        with running_server(tmp_path, jobs=2) as srv:
            run_sweep("axpy", server=srv.url, **KWARGS)
        local = run_sweep("axpy", cache=tmp_path, **KWARGS)
        assert local.counter("simulations") == 0
        assert local.counter("cache_hits") == NCELLS

    def test_refresh_forces_resimulation(self, tmp_path):
        with running_server(tmp_path, jobs=2) as srv:
            first = run_sweep("axpy", server=srv.url, **KWARGS)
            again = run_sweep("axpy", server=srv.url, refresh=True, **KWARGS)
            assert again.counter("simulations") == NCELLS
            assert again.counter("cache_hits") == 0
            assert sweep_fingerprint(again) == sweep_fingerprint(first)

    def test_env_var_routes_run_sweep(self, tmp_path, monkeypatch):
        with running_server(tmp_path, jobs=2) as srv:
            monkeypatch.setenv("REPRO_SWEEP_SERVER", srv.url)
            sweep = run_sweep("axpy", **KWARGS)
            assert srv.perf.counters["serve.request"] == 1
            assert sweep.counter("simulations") == NCELLS

    def test_tier0_estimates_served_in_thread(self, tmp_path):
        with running_server(tmp_path) as srv:
            sweep = run_sweep("axpy", server=srv.url,
                              versions=["omp_for"], threads=(1, 4),
                              params={"n": 120_000}, fidelity=0)
            assert sweep.counter("estimates") == 2
            assert srv.perf.counters["serve.estimates"] == 2
            assert srv._runner._pool is None  # no process pool spun up

    def test_simulated_miss_streams_the_worker_document(self, tmp_path, monkeypatch):
        """A tier-2 miss is encoded once, in the pool worker: the server
        never decodes it, and streams exactly the document it stores."""
        def no_decode(data):
            raise AssertionError("the server decoded a result")

        monkeypatch.setattr(codec, "result_from_dict", no_decode)
        query = MatrixQuery(workload="axpy", versions=("omp_for",), threads=(1, 4),
                            params={"n": 120_000}, fidelity=2)
        with running_server(tmp_path, jobs=2) as srv, SweepClient(srv.url) as client:
            events = list(client.query(query))
            assert srv.perf.counters["serve.simulations"] == 2
        cells = [e for e in events if e["type"] == "cell"]
        assert [e["status"] for e in cells] == ["run", "run"]
        store = ResultCache(tmp_path)
        for event in cells:
            assert event["payload"] == store.get(event["key"])

    def test_cell_events_are_the_stored_bytes(self, tmp_path, monkeypatch):
        """Every ``cell`` line — run, join, hit and error, traced tier 2
        and tier 0 — is byte-identical to encoding the parsed event, and
        its payload is the stored entry's body."""
        real = executor_mod._run_cell

        def slow_or_error(cell, ctx, trace, validate, metrics=None):
            if cell.fidelity == 0:
                time.sleep(0.3)  # hold cells open so the queries overlap
                if cell.version == "cxx_thread":
                    return None, "injected cell error"
            return real(cell, ctx, trace, validate, metrics)

        monkeypatch.setattr(executor_mod, "_run_cell", slow_or_error)
        tier0 = MatrixQuery("axpy", versions=("omp_for", "cxx_thread"), threads=(1, 4),
                            params={"n": 120_000}, fidelity=0)
        traced = MatrixQuery("axpy", versions=("omp_task",), threads=(2,),
                             params={"n": 120_000}, fidelity=2, trace=True)
        with running_server(tmp_path, jobs=1) as srv:
            streams = [None, None]

            def work(slot):
                streams[slot] = raw_lines(srv.url, tier0)

            threads = [threading.Thread(target=work, args=(s,)) for s in (0, 1)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(30)
                assert not t.is_alive()
            streams += [raw_lines(srv.url, tier0), raw_lines(srv.url, traced),
                        raw_lines(srv.url, traced)]
            counters = srv.perf.counters
        assert counters["serve.dedup_hit"] == NCELLS
        assert counters["serve.cache_hit"] == NCELLS + 1
        store = ResultCache(tmp_path)
        statuses = []
        for line in (line for lines in streams for line in cell_lines(lines)):
            event = json.loads(line)
            assert line == protocol.encode_event(protocol.cell_event(
                event["version"], event["nthreads"], event["key"], event["status"],
                event["payload"]))
            _header, body = store.read(event["key"])
            assert line.endswith(b',"payload":' + body[:-1] + b"}\n")
            statuses.append(event["status"])
        # two concurrent cold streams (run + join), a warm one, cold and
        # warm traced; the injected errors stream as "error" each time
        assert statuses.count("error") == 6
        assert statuses.count("run") == 4 + 1
        assert statuses.count("hit") == 2 + 1

    def test_unusable_entries_are_misses_and_rewritten(self, tmp_path):
        """A stale ``format``, a wrong ``fidelity`` stamp (each framed
        true to its body, so only the header's stamps turn it away) and a
        truncated file each cost a miss; the server re-simulates the cell
        and overwrites the entry with the bytes a fresh store holds."""
        query = MatrixQuery("axpy", versions=("omp_for",), threads=(1, 2, 4),
                            params={"n": 120_000}, fidelity=0)
        store = ResultCache(tmp_path)
        with running_server(store) as srv:
            keys = [json.loads(line)["key"] for line in cell_lines(raw_lines(srv.url, query))]
            fresh = {k: store.path_for(k).read_bytes() for k in keys}
            stale, restamped, truncated = (store.path_for(k) for k in keys)
            stale.write_bytes(encode_entry({**store.get(keys[0]), "format": 0}))
            restamped.write_bytes(encode_entry({**store.get(keys[1]), "fidelity": 2}))
            truncated.write_bytes(fresh[keys[2]][: len(fresh[keys[2]]) // 2])
            assert all(store.path_for(k).read_bytes() != fresh[k] for k in keys)
            lines = cell_lines(raw_lines(srv.url, query))
            assert [json.loads(line)["status"] for line in lines] == ["run"] * 3
            assert srv.perf.counters["serve.estimates"] == 6
            assert "serve.cache_hit" not in srv.perf.counters
        assert {k: store.path_for(k).read_bytes() for k in keys} == fresh

    def test_hit_neither_decodes_nor_encodes(self, tmp_path, monkeypatch):
        """A warm query is answered without a codec decode, an entry
        encode or a parse of the body; a miss is encoded exactly once."""
        import repro.sweep.cache as cache_mod

        encodes = []
        real_encode = executor_mod.encode_entry

        def counting_encode(doc):
            encodes.append(doc)
            return real_encode(doc)

        def no_decode(data):
            raise AssertionError("the server decoded a result")

        # misses are encoded by the executor's entry point, and only there
        assert not hasattr(server_mod, "encode_entry")
        monkeypatch.setattr(executor_mod, "encode_entry", counting_encode)
        query = MatrixQuery("axpy", versions=("omp_for", "cxx_thread"), threads=(1, 4),
                            params={"n": 120_000}, fidelity=0)
        with running_server(tmp_path) as srv, SweepClient(srv.url) as client:
            cold = list(client.query(query))
            assert len(encodes) == NCELLS  # tier 0 encodes in a server thread
            monkeypatch.setattr(codec, "result_from_dict", no_decode)
            monkeypatch.setattr(executor_mod, "encode_entry", no_decode)
            parsed = []

            def header_only(data):
                parsed.append(len(data))
                return json.loads(data)

            monkeypatch.setattr(cache_mod, "json", types.SimpleNamespace(
                loads=header_only, dumps=json.dumps))
            warm = list(client.query(query))
        assert len(parsed) == NCELLS and max(parsed) < cache_mod.HEADER_CAP
        assert [e["status"] for e in warm if e["type"] == "cell"] == ["hit"] * NCELLS
        assert ({e["key"]: e["payload"] for e in warm if e["type"] == "cell"}
                == {e["key"]: e["payload"] for e in cold if e["type"] == "cell"})

    def test_bounded_store_pruned_after_request(self, tmp_path):
        cache = ResultCache(tmp_path, max_entries=2)
        with running_server(cache, jobs=2) as srv:
            run_sweep("axpy", server=srv.url, **KWARGS)
            # the prune runs after the response is complete; give the
            # loop a moment to finish the handler
            deadline = time.monotonic() + 10
            while len(cache) > 2 and time.monotonic() < deadline:
                time.sleep(0.05)
        assert len(cache) == 2
        assert srv.perf.counters["serve.evictions"] == NCELLS - 2

    def test_store_root_holds_only_shards(self, tmp_path):
        """Puts, a bounded prune, a clear and a served request leave
        nothing in the store root but its shard directories."""
        cache = ResultCache(tmp_path, max_entries=2)
        for i in range(4):
            cache.put(f"{i:02d}" * 32, {"format": 1})
        assert cache.prune() == 2
        assert cache.clear() == 2
        with running_server(cache, jobs=2) as srv:
            run_sweep("axpy", server=srv.url, **KWARGS)
        stray = [p.name for p in tmp_path.iterdir()
                 if not (p.is_dir() and len(p.name) == SHARD_WIDTH
                         and set(p.name) <= set("0123456789abcdef"))]
        assert stray == []
        assert len(cache) > 0


# ---------------------------------------------------------------------------
# the warm path: one probe job, coalesced writes, streaming kept
# ---------------------------------------------------------------------------
#: 9 versions x 4 thread counts of tier-0 estimates: a many-cell matrix
#: that is cheap to warm.
WIDE = MatrixQuery("axpy", threads=(1, 2, 3, 4), params={"n": 120_000}, fidelity=0)


def raw_response(url, query):
    """POST ``query`` on a bare socket; the response bytes as sent."""
    client = SweepClient(url)
    body = json.dumps(query.to_dict()).encode()
    with socket.create_connection((client.host, client.port), timeout=30) as sock:
        sock.sendall(b"POST /sweep HTTP/1.1\r\nContent-Length: %d\r\n\r\n" % len(body) + body)
        data = b""
        while not data.endswith(b"\r\n0\r\n\r\n"):
            chunk = sock.recv(1 << 16)
            assert chunk, f"connection closed mid-response: {data[-200:]!r}"
            data += chunk
    return data


def chunked(line):
    return b"%x\r\n" % len(line) + line + b"\r\n"


class TestWarmPath:
    def test_warm_query_streams_before_its_last_probe(self, tmp_path, monkeypatch):
        """The first cell of a warm many-cell query reaches the client
        while its last key is still being read: the read of the last key
        blocks until the client has the first ``cell`` event.  A server
        that probes every key before it writes fails here."""
        first_cell = threading.Event()
        with running_server(tmp_path) as srv:
            with SweepClient(srv.url) as client:
                cells = sum(1 for e in client.query(WIDE) if e["type"] == "cell")
            assert cells >= 32
            real_read, reads, waited = srv.cache.read, [], []

            def read(key):
                reads.append(key)
                if len(reads) == cells:
                    waited.append(first_cell.wait(10))
                return real_read(key)

            monkeypatch.setattr(srv.cache, "read", read)
            statuses = []
            with SweepClient(srv.url, timeout=30) as client:
                for event in client.query(WIDE):
                    if event["type"] == "cell":
                        first_cell.set()
                        statuses.append(event["status"])
        assert waited == [True], "the first cell waited for the last probe"
        assert statuses == ["hit"] * cells

    def test_warm_query_is_one_probe_job_and_the_same_bytes(self, tmp_path, monkeypatch):
        """A warm all-hit query reads its keys in one executor job, one
        after the other on one thread, and its response is byte for byte
        the head (which keeps the connection open: no ``Connection:
        close``), one chunk per event and the terminator."""
        query = MatrixQuery("axpy", versions=("omp_for", "cxx_thread"), threads=(1, 2, 4),
                            params={"n": 120_000}, fidelity=0)
        _spec, _config, cells = protocol.expand_query(query)
        with running_server(tmp_path) as srv, SweepClient(srv.url) as client:
            cold = [e for e in client.query(query) if e["type"] == "cell"]
            keys = {(e["version"], e["nthreads"]): e["key"] for e in cold}
            real_read, reads = srv.cache.read, []

            def read(key):
                t0 = time.monotonic()
                time.sleep(0.02)  # long enough for separate jobs to overlap
                entry = real_read(key)
                reads.append((threading.get_ident(), t0, time.monotonic()))
                return entry

            monkeypatch.setattr(srv.cache, "read", read)
            data = raw_response(srv.url, query)
            stats = client.stats()
        assert len(reads) == len(cells)
        assert len({ident for ident, _t0, _t1 in reads}) == 1
        assert all(a[2] <= b[1] for a, b in zip(reads, reads[1:]))
        store = ResultCache(tmp_path)
        lines = [protocol.encode_event(protocol.start_event(
            len(cells), "axpy", protocol.context_digest(ExecContext())))]
        for cell in cells:  # one probe job reads, and settles, in query order
            key = keys[(cell.version, cell.nthreads)]
            lines.append(protocol.encode_event(protocol.cell_event(
                cell.version, cell.nthreads, key, "hit", store.get(key))))
        lines.append(protocol.encode_event(protocol.end_event(
            {"cells": len(cells), "hits": len(cells), "runs": 0, "errors": 0,
             "dedup_joins": 0})))
        head = (b"HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\n"
                b"Cache-Control: no-store\r\nTransfer-Encoding: chunked\r\n\r\n")
        assert data == head + b"".join(chunked(line) for line in lines) + b"0\r\n\r\n"
        assert stats["observations"]["serve.probe_seconds"]["count"] == 2 * len(cells)
        assert stats["counters"]["serve.cache_hit"] == len(cells)

    def test_warm_many_cell_query_is_a_few_writes(self, tmp_path, monkeypatch):
        """A warm 36-cell query reaches its client in a few writes even
        when the event loop and the probe job run on different CPUs, as
        they do here unless the test process is pinned to one: the job
        hands results over in growing batches, not one loop wake-up per
        key."""
        writes = []
        real_write = asyncio.StreamWriter.write

        def counting_write(writer, data):
            writes.append(len(data))
            return real_write(writer, data)

        monkeypatch.setattr(asyncio.StreamWriter, "write", counting_write)
        with running_server(tmp_path) as srv, SweepClient(srv.url) as client:
            list(client.query(WIDE))
            counts, statuses = [], []
            for _ in range(20):
                del writes[:]
                statuses += [e["status"] for e in client.query(WIDE) if e["type"] == "cell"]
                counts.append(len(writes))
        assert statuses == ["hit"] * 36 * 20
        assert sum(count <= 4 for count in counts) >= 15, counts


# ---------------------------------------------------------------------------
# single-flight dedupe
# ---------------------------------------------------------------------------
class TestSingleFlight:
    def test_concurrent_identical_queries_simulate_once(self, tmp_path, monkeypatch):
        """Two identical queries in flight at once: every unique cell is
        simulated exactly once (the second request *joins* the first's
        futures — ``serve.dedup_hit``), and both clients get the full,
        identical result set."""
        real = executor_mod._run_cell

        def slow_estimate(cell, ctx, trace, validate, metrics=None):
            time.sleep(0.3)  # hold cells open so the queries overlap
            return real(cell, ctx, trace, validate, metrics)

        monkeypatch.setattr(executor_mod, "_run_cell", slow_estimate)
        kwargs = dict(versions=["omp_for", "cxx_thread"], threads=(1, 4),
                      params={"n": 120_000}, fidelity=0)
        with running_server(tmp_path) as srv:
            sweeps, errors = [None, None], []

            def work(slot):
                try:
                    sweeps[slot] = run_sweep("axpy", server=srv.url, **kwargs)
                except BaseException as exc:  # pragma: no cover - diagnostic
                    errors.append(exc)

            threads = [threading.Thread(target=work, args=(s,)) for s in (0, 1)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert not errors
            counters = srv.perf.counters
            # exactly one set of simulations for two requests
            assert counters["serve.estimates"] == NCELLS
            assert counters["serve.dedup_hit"] == NCELLS
            assert counters["serve.store"] == NCELLS
        assert sweep_fingerprint(sweeps[0]) == sweep_fingerprint(sweeps[1])
        # the joiner's client counts its joined cells as dedup hits
        total_joins = sum(s.counter("dedup_hits") for s in sweeps)
        assert total_joins == NCELLS
        # and nobody double-stored: the store holds one entry per cell
        assert len(ResultCache(tmp_path)) == NCELLS

    def test_failing_store_still_streams_every_cell(self, tmp_path, monkeypatch):
        """A store write that raises ``OSError`` (full or read-only
        disk) loses the entry, not the result: the owner and a
        concurrent joiner both get every cell and the ``end`` event,
        and ``/stats`` counts the failed writes."""
        real = executor_mod._run_cell

        def slow_estimate(cell, ctx, trace, validate, metrics=None):
            time.sleep(0.3)  # hold cells open so the queries overlap
            return real(cell, ctx, trace, validate, metrics)

        def full_disk(key, payload):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(executor_mod, "_run_cell", slow_estimate)
        cache = ResultCache(tmp_path)
        monkeypatch.setattr(cache, "put", full_disk)
        query = MatrixQuery("axpy", versions=("omp_for", "cxx_thread"),
                            threads=(1, 4), params={"n": 120_000}, fidelity=0)
        with running_server(cache) as srv:
            streams, errors = [None, None], []

            def work(slot):
                try:
                    with SweepClient(srv.url) as client:
                        streams[slot] = list(client.query(query))
                except BaseException as exc:  # pragma: no cover - diagnostic
                    errors.append(exc)

            threads = [threading.Thread(target=work, args=(s,)) for s in (0, 1)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            with SweepClient(srv.url) as client:
                counters = client.stats()["counters"]
        assert not errors
        docs = []
        for events in streams:
            assert [e["type"] for e in events] == (
                ["start"] + ["cell"] * NCELLS + ["end"]
            )
            assert events[-1]["counters"]["errors"] == 0
            docs.append({e["key"]: e["payload"] for e in events[1:-1]})
        assert len(docs[0]) == NCELLS
        assert docs[0] == docs[1]  # the joiner got the owner's documents
        assert counters["serve.dedup_hit"] == NCELLS
        assert counters["serve.store_error"] == NCELLS
        assert "serve.store" not in counters
        assert "serve.failed_request" not in counters
        assert len(cache) == 0


# ---------------------------------------------------------------------------
# refusal and failure paths
# ---------------------------------------------------------------------------
class TestServeRefusals:
    def test_custom_context_refused_client_side(self, tmp_path):
        with running_server(tmp_path) as srv:
            with pytest.raises(ValueError, match="custom machine"):
                run_sweep("axpy", ctx=ExecContext(seed=7), server=srv.url,
                          **KWARGS)

    def test_validation_refused_in_server_mode(self, tmp_path):
        with running_server(tmp_path) as srv:
            with pytest.raises(ValueError, match="server mode"):
                run_sweep("axpy", server=srv.url, validate=True, **KWARGS)

    def test_context_digest_mismatch_detected(self, tmp_path):
        """A server simulating a different machine than the client
        expects answers with a hard error, not different numbers."""
        with running_server(tmp_path, ctx=ExecContext(seed=123)) as srv:
            with pytest.raises(ServerError, match="different execution context"):
                run_sweep("axpy", server=srv.url, **KWARGS)

    def test_unknown_workload_is_a_400(self, tmp_path):
        with running_server(tmp_path) as srv, SweepClient(srv.url) as client:
            with pytest.raises(ServerError, match="400"):
                list(client.query(MatrixQuery("no_such_workload")))
            assert srv.perf.counters["serve.bad_request"] == 1

    @pytest.mark.parametrize("body", [
        {"fidelity": None},
        {"fidelity": True},
        {"fidelity": 2.9},
        {"fidelity": 1},
        {"threads": 5},
        {"threads": [None]},
        {"threads": ["four"]},
        {"params": [1]},
        {"versions": 3},
        {"trace": "yes"},
    ], ids=repr)
    def test_malformed_query_is_a_400(self, tmp_path, body):
        """Wrong field types answer 400 and count as a bad request —
        never a dropped connection, never a silent coercion."""
        with running_server(tmp_path) as srv:
            conn = http_connection(srv.url)
            try:
                conn.request("POST", "/sweep",
                             body=json.dumps({"workload": "axpy", **body}))
                resp = conn.getresponse()
                detail = resp.read()
            finally:
                conn.close()
            assert resp.status == 400, detail
            assert srv.perf.counters["serve.bad_request"] == 1

    @pytest.mark.parametrize("where", ["request line", "header"])
    def test_oversized_line_is_a_431(self, tmp_path, where):
        """A line past the stream's 64 KiB limit answers 431 and closes
        the connection; it never kills the handler with a bare close."""
        long = "x" * 70_000
        if where == "request line":
            request = f"GET /{long} HTTP/1.1\r\nHost: t\r\n\r\n"
        else:
            request = f"GET /healthz HTTP/1.1\r\nX-Long: {long}\r\n\r\n"
        with running_server(tmp_path) as srv:
            host, port = srv.url.split("//", 1)[1].rsplit(":", 1)
            with socket.create_connection((host, int(port)), timeout=10) as sock:
                sock.sendall(request.encode("latin-1"))
                reply = b""
                while chunk := sock.recv(65536):
                    reply += chunk
            head = reply.split(b"\r\n\r\n", 1)[0].decode("latin-1")
            assert head.startswith("HTTP/1.1 431 Request Header Fields Too Large"), reply
            assert "Connection: close" in head
            assert srv.perf.counters["serve.bad_request"] == 1
            with SweepClient(srv.url) as client:
                assert client.health()

    def test_unknown_route_is_a_404(self, tmp_path):
        with running_server(tmp_path) as srv, SweepClient(srv.url) as client:
            with pytest.raises(ServerError, match="404"):
                client._get_json("/nope")

    def test_worker_crash_streams_fatal(self, tmp_path, monkeypatch):
        def boom(cell, ctx, trace, validate, metrics=None):
            raise RuntimeError("injected estimator crash")

        monkeypatch.setattr(executor_mod, "_run_cell", boom)
        with running_server(tmp_path) as srv:
            with pytest.raises(ServerError, match="server aborted"):
                run_sweep("axpy", server=srv.url, versions=["omp_for"],
                          threads=(1,), params={"n": 120_000}, fidelity=0)
            assert srv.perf.counters["serve.failed_request"] == 1

    def test_crashed_request_does_not_fail_its_joiner(self, tmp_path, monkeypatch):
        """A request whose cell crashes cancels only its own waiting: a
        cell it owns and another request joined still resolves, and the
        joiner gets every cell and the ``end`` event."""
        real = executor_mod._run_cell

        def crash_or_slow(cell, ctx, trace, validate, metrics=None):
            if cell.version == "cxx_thread":
                time.sleep(0.2)
                raise RuntimeError("injected estimator crash")
            time.sleep(1.0)
            return real(cell, ctx, trace, validate, metrics)

        monkeypatch.setattr(executor_mod, "_run_cell", crash_or_slow)
        owner = MatrixQuery("axpy", versions=("omp_for", "cxx_thread"), threads=(4,),
                            params={"n": 120_000}, fidelity=0)
        joiner = MatrixQuery("axpy", versions=("omp_for",), threads=(4,),
                             params={"n": 120_000}, fidelity=0)
        with running_server(tmp_path) as srv:
            answers = {}

            def work(name, query):
                try:
                    with SweepClient(srv.url, timeout=30) as client:
                        answers[name] = list(client.query(query))
                except ServerError as exc:
                    answers[name] = str(exc)

            threads = [threading.Thread(target=work, args=("owner", owner)),
                       threading.Thread(target=work, args=("joiner", joiner))]
            threads[0].start()
            time.sleep(0.05)  # the owner registers its cells first
            threads[1].start()
            for t in threads:
                t.join(30)
                assert not t.is_alive()
            with SweepClient(srv.url) as client:
                counters = client.stats()["counters"]
        assert "injected estimator crash" in answers["owner"]
        events = answers["joiner"]
        assert not isinstance(events, str), events
        assert [e["type"] for e in events] == ["start", "cell", "end"]
        assert events[1]["version"] == "omp_for"
        assert counters["serve.dedup_hit"] == 1
        assert counters["serve.failed_request"] == 1
        # the joined cell was resolved once, and stored
        assert len(ResultCache(tmp_path)) == 1

    def test_dead_pool_worker_is_replaced(self, tmp_path):
        """A pool worker killed between requests costs the next miss a
        retry on a fresh pool, not a failed request."""
        def query(n):
            return MatrixQuery("axpy", versions=("omp_for",), threads=(1,),
                               params={"n": n}, fidelity=2)

        with running_server(tmp_path, jobs=1) as srv, SweepClient(srv.url, timeout=60) as client:
            list(client.query(query(120_000)))
            (pid,) = list(srv._runner._pool._processes)
            os.kill(pid, signal.SIGKILL)
            events = list(client.query(query(130_000)))
            assert [e["status"] for e in events if e["type"] == "cell"] == ["run"]
            assert pid not in srv._runner._pool._processes
            list(client.query(query(140_000)))
            assert srv.perf.counters["serve.simulations"] == 3
            assert "serve.failed_request" not in srv.perf.counters

    def test_cell_that_kills_every_worker_fails_only_its_request(
        self, tmp_path, monkeypatch
    ):
        """The retry is once: a cell that breaks the fresh pool too
        fails its own request, and the next request is served."""
        real = executor_mod._run_cell

        def killer(cell, ctx, trace, validate, metrics=None):
            if cell.params.get("n") == 130_000:
                os.kill(os.getpid(), signal.SIGKILL)
            return real(cell, ctx, trace, validate, metrics)

        monkeypatch.setattr(executor_mod, "_run_cell", killer)

        def query(n):
            return MatrixQuery("axpy", versions=("omp_for",), threads=(1,),
                               params={"n": n}, fidelity=2)

        with running_server(tmp_path, jobs=1) as srv, SweepClient(srv.url, timeout=60) as client:
            with pytest.raises(ServerError, match="BrokenProcessPool"):
                list(client.query(query(130_000)))
            events = list(client.query(query(120_000)))
            assert [e["status"] for e in events if e["type"] == "cell"] == ["run"]
            assert srv.perf.counters["serve.failed_request"] == 1
            assert srv.perf.counters["serve.simulations"] == 1

    def test_idle_connections_time_out_without_blocking_others(
        self, tmp_path, monkeypatch
    ):
        """A client that sends nothing, and one that sends less body than
        its ``Content-Length``, each get a 408 once the read deadline
        passes; a sweep on another connection meanwhile is untouched."""
        monkeypatch.setattr(server_mod, "READ_TIMEOUT_SECONDS", 2.0)
        reference = run_sweep("axpy", **KWARGS)
        with running_server(tmp_path, jobs=2) as srv:
            idle = []
            for payload in (b"", b"POST /sweep HTTP/1.1\r\nContent-Length: 100\r\n\r\n{"):
                sock = socket.create_connection((srv.host, srv.port), timeout=30)
                sock.sendall(payload)
                idle.append(sock)
            served = run_sweep("axpy", server=srv.url, **KWARGS)
            assert sweep_fingerprint(served) == sweep_fingerprint(reference)
            for sock in idle:
                # read the framed response, not to EOF: pool workers
                # forked meanwhile hold the connection open
                with sock:
                    resp = http.client.HTTPResponse(sock)
                    resp.begin()
                    assert (resp.status, resp.reason) == (408, "Request Timeout")
                    assert "error" in json.loads(resp.read())
            assert srv.perf.counters["serve.read_timeout"] == 2
            assert srv.perf.counters["serve.request"] == 1

    def test_dropped_client_is_counted_and_its_cells_still_land(
        self, tmp_path, monkeypatch
    ):
        """A client that reads ``start`` and leaves ends its request's
        waiting (``serve.client_dropped``); the resolution still in
        flight stores its entry, a re-query is all hits, and the server
        stays healthy."""
        real = executor_mod._run_cell

        def staggered(cell, ctx, trace, validate, metrics=None):
            time.sleep({1: 0.2, 2: 0.5, 4: 2.5}[cell.nthreads])
            return real(cell, ctx, trace, validate, metrics)

        monkeypatch.setattr(executor_mod, "_run_cell", staggered)
        query = MatrixQuery("axpy", versions=("omp_for",), threads=(1, 2, 4),
                            params={"n": 120_000}, fidelity=0)
        with running_server(tmp_path) as srv, SweepClient(srv.url, timeout=30) as client:
            conn = http_connection(srv.url, timeout=30)
            conn.request("POST", "/sweep", body=json.dumps(query.to_dict()))
            resp = conn.getresponse()
            assert json.loads(resp.readline())["type"] == "start"
            resp.close()
            conn.close()
            deadline = time.monotonic() + 20
            while "serve.client_dropped" not in srv.perf.counters:
                assert time.monotonic() < deadline, "the drop was never noticed"
                time.sleep(0.05)

            async def waiting():
                """The request's cell waits still pending on the loop."""
                return [t for t in asyncio.all_tasks()
                        if t.get_coro().__qualname__.endswith("<locals>.settle")]

            loop = srv._server.get_loop()
            assert asyncio.run_coroutine_threadsafe(waiting(), loop).result(10) == []
            assert client.stats()["inflight"] == 1  # the p=4 cell, shielded
            while client.stats()["inflight"]:
                assert time.monotonic() < deadline, "the resolution never landed"
                time.sleep(0.05)
            assert srv.perf.counters["serve.client_dropped"] == 1
            assert srv.perf.counters["serve.store"] == 3
            assert len(ResultCache(tmp_path)) == 3
            events = list(client.query(query))
            assert [e["status"] for e in events if e["type"] == "cell"] == ["hit"] * 3
            assert client.health()

    def test_bad_url_rejected(self):
        with pytest.raises(ValueError, match="http"):
            SweepClient("ftp://example.com/")


# ---------------------------------------------------------------------------
# persistent connections
# ---------------------------------------------------------------------------
#: two tier-0 cells: cheap to warm, and a hit is all transport
SMALL = MatrixQuery("axpy", versions=("omp_for",), threads=(1, 4),
                    params={"n": 120_000}, fidelity=0)


class TestKeepAlive:
    def test_warm_queries_share_one_connection(self, tmp_path):
        """Every query of a client thread, and its ``/stats`` call, travel
        on one kept-alive connection."""
        with running_server(tmp_path) as srv, SweepClient(srv.url) as client:
            list(client.query(SMALL))
            for _ in range(20):
                statuses = [e["status"] for e in client.query(SMALL) if e["type"] == "cell"]
                assert statuses == ["hit", "hit"]
            counters = client.stats()["counters"]
        assert counters["serve.connection"] == 1
        assert counters["serve.request"] == 21
        assert counters["serve.cache_hit"] == 40

    @pytest.mark.parametrize("nthreads", [2, 4])
    def test_threads_querying_at_once_use_at_most_one_connection_each(
        self, tmp_path, nthreads
    ):
        """Threads sharing one client each hold their own connection while
        they stream, and each gets its own query's documents; the pool
        loses and duplicates no connection (a short switch interval makes
        its races likely)."""
        versions = ("omp_for", "cxx_thread", "omp_task", "cilk_for")[:nthreads]
        queries = [MatrixQuery("axpy", versions=(v,), threads=(1, 2, 4),
                               params={"n": 120_000}, fidelity=0) for v in versions]
        interval = sys.getswitchinterval()
        with running_server(tmp_path) as srv:
            client = SweepClient(srv.url)
            want = [{e["key"]: e["payload"] for e in client.query(q) if e["type"] == "cell"}
                    for q in queries]
            got, errors = [[] for _ in queries], []

            def work(slot):
                try:
                    for _ in range(15):
                        got[slot].append({e["key"]: (e["status"], e["payload"])
                                          for e in client.query(queries[slot])
                                          if e["type"] == "cell"})
                except BaseException as exc:  # pragma: no cover - diagnostic
                    errors.append(exc)

            threads = [threading.Thread(target=work, args=(s,)) for s in range(nthreads)]
            sys.setswitchinterval(1e-5)
            try:
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(30)
                    assert not t.is_alive()
            finally:
                sys.setswitchinterval(interval)
            counters = client.stats()["counters"]
        assert not errors, errors
        for slot in range(nthreads):
            assert len(got[slot]) == 15
            for answer in got[slot]:
                assert answer == {k: ("hit", doc) for k, doc in want[slot].items()}
        assert counters["serve.connection"] <= nthreads
        assert len(client._idle) == counters["serve.connection"]
        assert counters["serve.request"] == 16 * nthreads
        client.close()

    def test_idle_close_under_a_forked_worker_is_retried(self, tmp_path, monkeypatch):
        """A pool worker forked while the client's connection was open
        holds a copy of its fd.  The server closes the connection once it
        sits idle past the read deadline, and shuts the socket down first:
        the client's next request on it fails at once instead of waiting
        out its timeout, and goes again on a new connection."""
        monkeypatch.setattr(server_mod, "READ_TIMEOUT_SECONDS", 0.5)
        query = MatrixQuery("axpy", versions=("omp_for",), threads=(1,),
                            params={"n": 120_000}, fidelity=2)
        with running_server(tmp_path, jobs=1) as srv, SweepClient(srv.url, timeout=5) as client:
            cold = [e["status"] for e in client.query(query) if e["type"] == "cell"]
            assert cold == ["run"]
            assert srv._runner._pool._processes  # forked while the connection was open
            deadline = time.monotonic() + 5
            while srv._conns:  # the idle close
                assert time.monotonic() < deadline, "the idle connection was never closed"
                time.sleep(0.05)
            t0 = time.monotonic()
            warm = [e["status"] for e in client.query(query) if e["type"] == "cell"]
            elapsed = time.monotonic() - t0
            counters = dict(srv.perf.counters)
        assert warm == ["hit"]
        assert elapsed < 2.0
        assert counters["serve.connection"] == 2
        assert "serve.read_timeout" not in counters  # closed quietly, no 408

    def test_close_does_not_wait_for_idle_connections(self, tmp_path):
        """Shutdown hangs up a kept-alive connection that waits for its
        next request, rather than waiting out the read deadline."""
        with running_server(tmp_path) as srv:
            client = SweepClient(srv.url)
            for _ in range(2):
                list(client.query(SMALL))
            assert srv.perf.counters["serve.connection"] == 1
            assert len(srv._conns) == 1  # the client's idle connection
            t0 = time.monotonic()
        assert time.monotonic() - t0 < 1.0
        assert not client.health()
        client.close()

    def test_error_answer_closes_its_connection(self, tmp_path):
        """A 400 says ``Connection: close`` and the client does not keep
        that connection; the next query opens a new one."""
        with running_server(tmp_path) as srv:
            with socket.create_connection((srv.host, srv.port), timeout=30) as sock:
                sock.sendall(b"POST /sweep HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}")
                resp = http.client.HTTPResponse(sock)
                resp.begin()
                assert resp.status == 400
                assert resp.getheader("Connection") == "close"
                resp.read()
            with SweepClient(srv.url) as client:
                with pytest.raises(ServerError, match="400"):
                    list(client.query(MatrixQuery("no_such_workload")))
                assert client._idle == []
                list(client.query(SMALL))
                assert len(client._idle) == 1
            counters = dict(srv.perf.counters)
        assert counters["serve.connection"] == 3
        assert counters["serve.bad_request"] == 2

    def test_fatal_stream_ends_its_connection(self, tmp_path, monkeypatch):
        """A stream that ends in ``fatal`` ends its connection on both
        sides: the client does not keep it and the server closes it."""
        def boom(cell, ctx, trace, validate, metrics=None):
            raise RuntimeError("injected estimator crash")

        monkeypatch.setattr(executor_mod, "_run_cell", boom)
        with running_server(tmp_path) as srv, SweepClient(srv.url) as client:
            with pytest.raises(ServerError, match="server aborted"):
                list(client.query(SMALL))
            assert client._idle == []
            deadline = time.monotonic() + 5
            while srv._conns:
                assert time.monotonic() < deadline, "the server kept the connection"
                time.sleep(0.05)
            assert srv.perf.counters["serve.failed_request"] == 1

    def test_close_requests_end_their_connection(self, tmp_path):
        """A client that sends ``Connection: close``, or speaks HTTP/1.0,
        gets an answer marked ``Connection: close`` and then the end of
        the stream, not the idle deadline."""
        with running_server(tmp_path) as srv:
            for request in (b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n",
                            b"GET /healthz HTTP/1.0\r\n\r\n"):
                with socket.create_connection((srv.host, srv.port), timeout=5) as sock:
                    sock.sendall(request)
                    data = b""
                    while chunk := sock.recv(1 << 16):
                        data += chunk
                head, _, body = data.partition(b"\r\n\r\n")
                assert head.startswith(b"HTTP/1.1 200 OK") and b"Connection: close" in head
                assert json.loads(body) == {"ok": True}

    def test_client_close_closes_idle_connections(self, tmp_path):
        """Leaving a ``with SweepClient(...)`` block closes its idle
        connection, and the server sees the client leave."""
        with running_server(tmp_path) as srv:
            with SweepClient(srv.url) as client:
                list(client.query(SMALL))
                assert len(client._idle) == 1
            assert client._idle == []
            deadline = time.monotonic() + 5
            while srv._conns:
                assert time.monotonic() < deadline, "the server kept the connection"
                time.sleep(0.05)
            assert "serve.client_dropped" not in srv.perf.counters
