"""Client library for the sweep service (:mod:`repro.serve.server`).

:class:`SweepClient` is the thin transport: it POSTs a
:class:`~repro.serve.protocol.MatrixQuery` and yields the NDJSON
events as they stream in (stdlib ``http.client`` only — the response
is chunk-framed, and ``http.client`` decodes chunked transfer
transparently, so ``readline`` on the response object is the whole
streaming story).

Connections are reused: the client keeps the connections that finished
a response cleanly and takes one for its next request, so a client
thread sends every query over one kept-alive connection (threads that
query at once each get their own).  A connection goes back only after
its ``end`` event and chunk terminator have been read, and only when
the server kept it open; an error answer, a ``fatal`` event, a failure
or a stream left unfinished closes it.  The server may close an idle
connection at any time (its read deadline, a shutdown), so a request
whose reused connection fails before any answer arrives is sent once
more, on a new connection; a failure after that, or after events were
yielded, is raised.  :meth:`SweepClient.close` (or leaving a ``with``
block) closes the idle connections.

:func:`run_sweep_remote` is the drop-in integration:
``run_sweep(..., server=URL)`` (or ``REPRO_SWEEP_SERVER`` in the
environment) routes here, and the assembled
:class:`~repro.core.experiment.SweepResult` is indistinguishable from
a locally executed sweep — same decoded results (the payloads are the
exact cache-entry documents the local path stores), same series/errors
assembly, same metrics counter schema, same host-telemetry snapshot
shape.  The benchmark harness and the ``repro sweep`` CLI therefore
need no sweep-shaped code of their own to go remote.
"""

from __future__ import annotations

import json
import threading
from typing import Any, Iterator, Mapping, Optional, Sequence
from urllib.parse import urlsplit

from repro.core.experiment import PAPER_THREADS, SweepResult
from repro.obs.metrics import MetricsRegistry, result_metrics
from repro.perf.spans import recording as perf_recording
from repro.perf.spans import span as perf_span
from repro.runtime.base import ExecContext
from repro.serve import protocol
from repro.serve.protocol import MatrixQuery
from repro.sweep.executor import SERVER_ENV, SWEEP_COUNTERS, _decode_entry, _fill_series

__all__ = ["SERVER_ENV", "ServerError", "SweepClient", "run_sweep_remote"]


class ServerError(RuntimeError):
    """The service refused or aborted a query."""


class SweepClient:
    """Blocking HTTP client for one sweep service endpoint.

    ``url`` accepts ``http://host:port`` or bare ``host:port``.  Safe to
    share between threads; each request holds its own connection.
    """

    def __init__(self, url: str, timeout: float = 600.0) -> None:
        if "//" not in url:
            url = "http://" + url
        parts = urlsplit(url)
        if parts.scheme not in ("", "http"):
            raise ValueError(f"sweep service URL must be http://, got {url!r}")
        if not parts.hostname:
            raise ValueError(f"sweep service URL has no host: {url!r}")
        self.host = parts.hostname
        self.port = parts.port or 80
        self.timeout = timeout
        self._idle: list = []  # connections ready for the next request
        self._lock = threading.Lock()

    def __enter__(self) -> "SweepClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Close the idle connections (a query still streaming keeps its
        own, and closes or returns it when it ends)."""
        with self._lock:
            idle, self._idle = self._idle, []
        for conn in idle:
            conn.close()

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def _connection(self):
        """A new connection (not pooled)."""
        import http.client

        return http.client.HTTPConnection(self.host, self.port, timeout=self.timeout)

    def _send(self, method: str, path: str, body: Optional[bytes] = None,
              headers: Optional[Mapping[str, str]] = None):
        """Send one request on an idle connection, or a new one; returns
        the connection and its response, whose head has been read.

        A reused connection that fails before any answer arrives was
        closed by the server while idle; the request goes once more on a
        new connection."""
        with self._lock:
            conn = self._idle.pop() if self._idle else None
        reused = conn is not None
        while True:
            if conn is None:
                conn = self._connection()
            try:
                conn.request(method, path, body=body, headers=headers or {})
                return conn, conn.getresponse()
            except (ConnectionResetError, BrokenPipeError):
                # RemoteDisconnected is a ConnectionResetError
                conn.close()
                if not reused:
                    raise
                conn, reused = None, False
            except BaseException:
                conn.close()
                raise

    def _release(self, conn, resp) -> None:
        """Keep a connection whose response was read to its end, unless
        the server closes it."""
        if resp.will_close:
            conn.close()
        else:
            with self._lock:
                self._idle.append(conn)

    def _get_json(self, path: str) -> dict[str, Any]:
        conn, resp = self._send("GET", path)
        try:
            body = resp.read()
        except BaseException:
            conn.close()
            raise
        self._release(conn, resp)
        if resp.status != 200:
            raise ServerError(f"GET {path} -> {resp.status}: {body[:200]!r}")
        return json.loads(body.decode("utf-8"))

    def health(self) -> bool:
        """True when the service answers its health probe."""
        try:
            return bool(self._get_json("/healthz").get("ok"))
        except (OSError, ServerError, ValueError):
            return False

    def stats(self) -> dict[str, Any]:
        """The server's live telemetry snapshot (``serve.*`` counters)."""
        return self._get_json("/stats")

    def query(self, query: MatrixQuery) -> Iterator[dict[str, Any]]:
        """POST one matrix query; yield protocol events as they stream.

        Raises :class:`ServerError` on a non-200 answer or a ``fatal``
        event (the server aborted mid-stream, e.g. a worker crash).
        """
        body = json.dumps(query.to_dict(), separators=(",", ":")).encode("utf-8")
        conn, resp = self._send("POST", "/sweep", body,
                                {"Content-Type": "application/json"})
        try:
            if resp.status != 200:
                detail = resp.read().decode("utf-8", "replace").strip()
                raise ServerError(f"POST /sweep -> {resp.status}: {detail[:500]}")
            while True:
                line = resp.readline()
                if not line:
                    raise ServerError("stream ended before the 'end' event "
                                      "(server died mid-query?)")
                if not line.strip():
                    continue
                event = protocol.decode_event(line)
                if event["type"] == "fatal":
                    raise ServerError(f"server aborted query: {event['error']}")
                if event["type"] == "end":
                    # 'end' is always the last event: read the chunk
                    # terminator and hand the connection back before
                    # yielding it, so a caller that stops here loses
                    # nothing
                    resp.read()
                    self._release(conn, resp)
                    conn = None
                    yield event
                    return
                yield event
        finally:
            if conn is not None:
                conn.close()


def run_sweep_remote(
    workload: str,
    versions: Optional[Sequence[str]] = None,
    threads: Sequence[int] = PAPER_THREADS,
    ctx: Optional[ExecContext] = None,
    *,
    params: Optional[Mapping[str, Any]] = None,
    fidelity: int = 2,
    trace: bool = False,
    refresh: bool = False,
    server: str,
    metrics: Optional[MetricsRegistry] = None,
    progress=None,
) -> SweepResult:
    """Serve one sweep from a running service; returns a ``SweepResult``.

    The result is assembled exactly like the local executor's phase 3:
    every cell event's payload is decoded through the same
    ``_decode_entry``/codec pipeline a cache hit uses, so results are
    byte-identical to the direct :func:`~repro.sweep.run_sweep` path.
    Counter mapping: server ``hits`` → ``cache_hits``, ``runs`` →
    ``simulations``/``estimates`` (by tier), ``dedup_joins`` →
    ``dedup_hits`` — a warm service answers with ``simulations == 0``
    just like a warm local cache.
    """
    # Protocol v1 serves one execution context per server (the default
    # paper machine) — exactly like one cache directory serves one
    # context's entries.  A custom machine/costs/seed sweep silently
    # answered from the server's context would be *wrong*, not slow, so
    # refuse it here instead.
    default = ExecContext()
    if ctx is not None and ctx.with_fidelity(2) != default:
        raise ValueError(
            "server mode serves the default execution context (protocol v1); "
            "sweeps under a custom machine/cost-model/seed context must run "
            "locally (drop server=/REPRO_SWEEP_SERVER)"
        )
    query = MatrixQuery(
        workload=workload,
        versions=tuple(versions) if versions is not None else None,
        threads=tuple(threads),
        params=dict(params or {}),
        fidelity=int(fidelity),
        trace=bool(trace),
        refresh=bool(refresh),
    )
    spec, config, cells = protocol.expand_query(query)
    slots = {(c.version, c.nthreads): i for i, c in enumerate(cells)}
    reg = metrics if metrics is not None else MetricsRegistry()
    for name in SWEEP_COUNTERS + ("dedup_hits",):
        reg.counter(name)
    reg.counter("sweep_cells").inc(len(cells))

    sweep = SweepResult(config=config, figure=spec.figure, metrics=reg)
    done = 0
    with perf_recording("sweep") as host, SweepClient(server) as client:
        with perf_span("serve.client_request"):
            events = client.query(query)
            expected_digest = protocol.context_digest(default)  # cached per context
            for event in events:
                if event["type"] == "start":
                    if event.get("ctx") and event["ctx"] != expected_digest:
                        raise ServerError(
                            "server simulates a different execution context "
                            "(machine/costs/seed) than this client expects; "
                            "refusing to mix result spaces"
                        )
                elif event["type"] == "cell":
                    slot = (event["version"], int(event["nthreads"]))
                    if slot not in slots:
                        raise ServerError(f"server answered unknown cell {slot}")
                    with perf_span("codec.decode"):
                        decoded = _decode_entry(event["payload"], query.fidelity)
                    if decoded is None:
                        raise ServerError(
                            f"undecodable payload for cell {slot} "
                            "(format/fidelity mismatch — server and client "
                            "package versions agree?)"
                        )
                    res, err = decoded
                    done += 1
                    if err is not None:
                        sweep.errors[slot] = err
                        reg.counter("sweep_errors").inc()
                    elif res is not None:
                        sweep.results[slot] = res
                        reg.merge(result_metrics(res))
                    if progress is not None:
                        progress(done, len(cells), cells[slots[slot]],
                                 event["status"])
                elif event["type"] == "end":
                    counters = event["counters"]
                    reg.counter("cache_hits").inc(counters.get("hits", 0))
                    reg.counter("cache_misses").inc(counters.get("runs", 0))
                    owned = counters.get("runs", 0) - counters.get("dedup_joins", 0)
                    sim_counter = "estimates" if query.fidelity == 0 else "simulations"
                    reg.counter(sim_counter).inc(max(0, owned))
                    reg.counter("dedup_hits").inc(counters.get("dedup_joins", 0))
    if done != len(cells):
        raise ServerError(f"server settled {done}/{len(cells)} cells")
    _fill_series(sweep)
    if host is not None:
        sweep.perf = host.snapshot()
    return sweep
