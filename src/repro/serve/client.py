"""Client library for the sweep service (:mod:`repro.serve.server`).

:class:`SweepClient` is the thin transport: it POSTs a
:class:`~repro.serve.protocol.MatrixQuery` and yields the NDJSON
events as they stream in.  It speaks the little HTTP/1.1 the server
does, by hand and with the stdlib ``socket`` module only: each request
leaves in one write (request line, ``Host``, ``Content-Type``,
``Content-Length`` and body), and each reply is read through one
buffered reader over the socket, its status line and headers by line
and its body by size, whether framed by ``Content-Length`` or chunked
(a chunk-size line, then that many bytes).  Event lines are cut from
the chunk bytes, so a line may span chunks and a chunk may hold many
lines.  A reply that breaks the framing (a malformed status line or
chunk size, a stream cut short mid-chunk or mid-line, bytes after the
``end`` event) raises :class:`ServerError` without yielding the partial
event.

Connections are reused: the client keeps the connections that finished
a response cleanly and takes one for its next request, so a client
thread sends every query over one kept-alive connection (threads that
query at once each get their own).  A connection goes back only after
its ``end`` event and chunk terminator have been read, and only when
the server kept it open (an ``HTTP/1.1`` reply not marked
``Connection: close``); an error answer, a ``fatal`` event, a failure,
a timeout or a stream left unfinished closes it.  The server may close
an idle connection at any time (its read deadline, a shutdown), so a
request whose reused connection fails before any answer arrives is
sent once more, on a new connection; a failure after that, or after
events were yielded, is raised.  :meth:`SweepClient.close` (or leaving
a ``with`` block) closes the idle connections.

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
import re
import socket
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

#: longest status, header or chunk-size line read, and most headers
_MAX_LINE = 65536
_MAX_HEADERS = 100
#: a chunk-size line: hex digits, then any chunk extension
_CHUNK_SIZE = re.compile(rb"([0-9A-Fa-f]+)[ \t]*(?:;[^\r\n]*)?\r?\n")
_ENDED = "stream ended before the 'end' event (server died mid-query?)"


class ServerError(RuntimeError):
    """The service refused or aborted a query."""


class _Connection:
    """One connection to the service: its socket and a buffered reader
    of the replies."""

    __slots__ = ("sock", "rfile")

    def __init__(self, host: str, port: int, timeout: float) -> None:
        self.sock = socket.create_connection((host, port), timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.rfile = self.sock.makefile("rb", buffering=1 << 16)

    def close(self) -> None:
        self.rfile.close()
        self.sock.close()

    def _line(self, what: str) -> bytes:
        line = self.rfile.readline(_MAX_LINE + 1)
        if not line.endswith(b"\n"):
            raise ServerError(f"{what} cut short or too long: {line[:100]!r}")
        return line

    def head(self) -> tuple[int, Optional[int], bool, bool]:
        """Read a reply's status line and headers: its status, its
        ``Content-Length`` (``None`` when absent), whether it is chunked
        and whether the server keeps the connection open after it.

        A connection that ends before any byte of the answer raises
        :class:`ConnectionResetError`, the failure a request on an idle
        connection the server closed meets."""
        line = self.rfile.readline(_MAX_LINE + 1)
        if not line:
            raise ConnectionResetError("the server closed the connection before answering")
        parts = line.split(None, 2)
        if (len(parts) < 2 or not parts[0].startswith(b"HTTP/1.")
                or not parts[1].isdigit() or not line.endswith(b"\n")):
            raise ServerError(f"malformed status line: {line[:100]!r}")
        status = int(parts[1])
        length, chunked, keep = None, False, parts[0] == b"HTTP/1.1"
        for _ in range(_MAX_HEADERS):
            line = self._line("reply head")
            if line in (b"\r\n", b"\n"):
                # a body framed by neither ends with the connection
                return status, length, chunked, keep and (chunked or length is not None)
            name, _, value = line.partition(b":")
            name = name.strip().lower()
            if name == b"content-length":
                if not value.strip().isdigit():
                    raise ServerError(f"bad Content-Length: {value.strip()[:100]!r}")
                length = int(value)
            elif name == b"transfer-encoding":
                chunked = b"chunked" in value.lower()
            elif name == b"connection" and b"close" in value.lower():
                keep = False
        raise ServerError(f"more than {_MAX_HEADERS} reply headers")

    def body(self, length: Optional[int], chunked: bool) -> bytes:
        """A whole reply body."""
        if chunked:
            return b"".join(self.chunks())
        data = self.rfile.read(length)
        if length is not None and len(data) < length:
            raise ServerError(f"reply body cut short at {len(data)} of {length} bytes")
        return data

    def chunks(self) -> Iterator[bytes]:
        """Yield a chunked body's chunks; returns once the terminator and
        any trailers have been read."""
        rfile = self.rfile
        while True:
            line = rfile.readline(_MAX_LINE + 1)
            match = _CHUNK_SIZE.fullmatch(line)
            if match is None:
                raise ServerError(_ENDED if not line else
                                  f"malformed chunk size: {line[:100]!r}")
            size = int(match[1], 16)
            if not size:
                break
            data = rfile.read(size)
            if len(data) < size or rfile.read(2) != b"\r\n":
                raise ServerError(_ENDED if len(data) < size else "chunk not closed by CRLF")
            yield data
        while self._line("chunked trailer") not in (b"\r\n", b"\n"):
            pass


class SweepClient:
    """Blocking HTTP client for one sweep service endpoint.

    ``url`` accepts ``http://host:port`` or bare ``host:port``.  Safe to
    share between threads; each request holds its own connection.
    ``timeout`` bounds each connect and each read of a reply, in
    seconds; one that passes raises :class:`TimeoutError`.
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
        host = f"[{self.host}]" if ":" in self.host else self.host
        self._host_header = host if self.port == 80 else f"{host}:{self.port}"
        self._idle: list[_Connection] = []  # connections ready for the next request
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

    def _send(self, method: str, path: str, body: Optional[bytes] = None
              ) -> tuple[_Connection, int, Optional[int], bool, bool]:
        """Send one request on an idle connection, or a new one; returns
        the connection and the reply's :meth:`_Connection.head`.

        A reused connection that fails before any answer arrives was
        closed by the server while idle; the request goes once more on a
        new connection."""
        request = f"{method} {path} HTTP/1.1\r\nHost: {self._host_header}\r\n"
        if body is not None:
            request += ("Content-Type: application/json\r\n"
                        f"Content-Length: {len(body)}\r\n")
        request = (request + "\r\n").encode("latin-1") + (body or b"")
        with self._lock:
            conn = self._idle.pop() if self._idle else None
        reused = conn is not None
        while True:
            if conn is None:
                conn = _Connection(self.host, self.port, self.timeout)
            try:
                conn.sock.sendall(request)
                return (conn, *conn.head())
            except (ConnectionResetError, BrokenPipeError):
                conn.close()
                if not reused:
                    raise
                conn, reused = None, False
            except BaseException:
                conn.close()
                raise

    def _release(self, conn: _Connection, keep: bool) -> None:
        """Keep a connection whose reply was read to its end, unless the
        server closes it."""
        if keep:
            with self._lock:
                self._idle.append(conn)
        else:
            conn.close()

    def _get_json(self, path: str) -> dict[str, Any]:
        conn, status, length, chunked, keep = self._send("GET", path)
        try:
            body = conn.body(length, chunked)
        except BaseException:
            conn.close()
            raise
        self._release(conn, keep)
        if status != 200:
            raise ServerError(f"GET {path} -> {status}: {body[:200]!r}")
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

        Raises :class:`ServerError` on a non-200 answer, a ``fatal``
        event (the server aborted mid-stream, e.g. a worker crash) or a
        stream that breaks its framing or ends early.
        """
        body = json.dumps(query.to_dict(), separators=(",", ":")).encode("utf-8")
        conn, status, length, chunked, keep = self._send("POST", "/sweep", body)
        try:
            if status != 200:
                detail = conn.body(length, chunked).decode("utf-8", "replace").strip()
                raise ServerError(f"POST /sweep -> {status}: {detail[:500]}")
            end = None
            pending = b""
            for data in conn.chunks() if chunked else (conn.body(length, False),):
                if pending:
                    data = pending + data
                *lines, pending = data.split(b"\n")
                for line in lines:
                    if not line.strip():
                        continue
                    if end is not None:
                        raise ServerError("bytes after the 'end' event")
                    event = protocol.decode_event(line)
                    if event["type"] == "fatal":
                        raise ServerError(f"server aborted query: {event['error']}")
                    if event["type"] == "end":
                        # 'end' is always the last event: it is yielded
                        # once the chunk terminator has been read and the
                        # connection handed back, so a caller that stops
                        # there loses nothing
                        end = event
                    else:
                        yield event
            if pending.strip():
                raise ServerError("bytes after the 'end' event" if end is not None
                                  else "stream ended mid-line")
            if end is None:
                raise ServerError(_ENDED)
            self._release(conn, keep)
            conn = None
            yield end
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
