"""Sweep-as-a-service: the asyncio front end over the sharded store.

:class:`SweepServer` turns :func:`repro.sweep.run_sweep` + the
content-addressed :class:`~repro.sweep.cache.ResultCache` into a
long-running query service.  A what-if matrix arrives as one ``POST
/sweep`` (:class:`~repro.serve.protocol.MatrixQuery`), is expanded to
:class:`~repro.sweep.cells.SweepCell`\\ s, and every cell is resolved
through exactly one of:

- **store hit** — the cell's content address resolves in the shared
  :class:`ResultCache` (true-LRU, sharded), the entry's framing checks
  out (header, body length, CRC) and its header passes the local
  sweep's stamp checks (``format``, ``fidelity``, a ``result`` or an
  ``error``);
- **single-flight join** — an *identical cell of another in-flight
  request* is already being resolved; this request waits on the same
  future instead of re-simulating (``serve.dedup_hit``).  The in-flight
  map is keyed by ``cache_key``, so "identical" means identical in every
  output-determining input, not merely same-named.  The resolution
  belongs to the server, not to the request that started it, so a
  request that fails or is dropped never fails the requests that joined
  it;
- **fresh simulation** — the miss runs through the local sweep's miss
  runner (:class:`repro.sweep.executor.MissRunner`), one fork-based
  process pool for every request (tier-0 estimates run in a thread: an
  estimate costs microseconds, a process hop costs more), awaited
  through ``asyncio.wrap_future``.  The worker encodes the finished
  cache-entry document once, to the bytes of its entry file, and the
  server writes those bytes through to the store and streams their
  body through a ``memoryview`` slice.  A store that cannot be written
  (full or read-only disk) loses the entry, not the result: the body
  still streams, and the failed write counts as ``serve.store_error``.
  A worker that dies (OOM kill, SIGKILL) breaks the pool: the runner's
  one dead-worker rule replaces it and retries the cell once
  (``serve.pool_broken``); a second failure fails only the requests
  waiting on that cell.

The entry body is the unit the store and the wire share: an entry file
is one short header line (stamps, body length, CRC) and the body, the
document as one line of compact JSON (:mod:`repro.sweep.cache`).  A hit
reads the file once, parses only the header, checks the stamps on it
and the body's length and CRC; the body is never parsed, decoded or
dumped again.  The event loop only splices the body into the ``cell``
event (:func:`~repro.serve.protocol.cell_event_parts`), which is
byte-identical to encoding the parsed document.

A request costs one context-identity lookup and one thread hop for its
store reads.  Its keys come from the context's cached identity document
(:func:`repro.sweep.cache.context_identity`; the server's context
digest is computed once, at construction).  The request then *claims*
its keys: it joins a key that is in flight or registers a server-owned
future for it, with no ``await`` between the look-up and the
registration, so two racing requests can never both register the same
key.  One executor job then reads the keys the request registered, in
order, and hands the results to the loop in batches of 1, 4, 16, ...
keys: a hit settles its key, a miss goes to the miss runner.

Results stream back as NDJSON *as cells land*, so a client sees its
first cells while later ones still simulate or are still being probed —
hundreds-of-cells METG matrices (Task Bench) render incrementally
instead of at the end.  On each wake-up the response writer sends every
cell that has settled in one write: the head and the ``start`` event go
with the first batch (the first settled cell, or the end of the probe
job, whichever comes first), the ``end`` event and the chunk terminator
with the last.  So a warm query costs at most one write per probe batch
(four for 36 cells); the bytes on the wire do not depend on how they are
batched.  Eviction policy lives in the store (``max_entries`` /
``ttl_seconds``); the server prunes after each request that stored new
entries.

Connections are persistent (HTTP/1.1 keep-alive): one connection serves
its client's requests in turn, so a warm hit pays no TCP connect, accept
or close.  A connection ends when the client closes it or sends
``Connection: close`` (or speaks HTTP/1.0), after an error answer
(400/404/408/413/431) or a ``fatal`` stream, when it sits idle for
:data:`READ_TIMEOUT_SECONDS` between requests, and at shutdown, which
hangs up idle connections at once and lets requests in flight finish.
Only a connection that never sent its first request in time gets a 408;
one that goes idle after a served request is closed without an answer,
because an unsolicited 408 would read as the answer to the client's next
query.  Every close shuts the socket down first (see :meth:`_hang_up`).

Telemetry: every connection, request, dedup join, hit, refused entry,
simulation, store error, read timeout and dropped client lands in one
lifetime :class:`~repro.perf.spans.PerfRecorder` (``serve.connection``,
``serve.request``, ``serve.dedup_hit``, ``serve.cache_hit``,
``serve.corrupt``, ``serve.simulations``, ``serve.read_timeout``,
``serve.client_dropped``, ...) exposed live at ``GET /stats`` and appended to the
:mod:`repro.perf` run ledger on shutdown.  Latencies are histograms
with p50/p90/p99: the whole request (``serve.request_seconds``) and
each phase of a key's resolution (``serve.probe_seconds``, the store
read and stamp check alone, plus the refusal check on a miss;
``serve.queue_seconds``, a miss's wait for a pool slot, from submit to
the worker's start stamp; ``serve.run_seconds``, from submit to the
entry bytes, so queue wait included; ``serve.store_seconds``).
"""

from __future__ import annotations

import asyncio
import functools
import json
import sys
from time import monotonic, perf_counter, process_time
from typing import Any, Optional, Union

from repro.perf.spans import PerfRecorder
from repro.runtime.base import ExecContext
from repro.serve import protocol
from repro.serve.protocol import MatrixQuery, ProtocolError
from repro.sweep import executor as _executor
from repro.sweep.cache import DEFAULT_CACHE_DIR, ResultCache, cache_key, entry_body
from repro.sweep.cells import SweepCell

__all__ = ["SweepServer", "main"]

#: Cap on request body size (a matrix query is tiny; anything bigger
#: is a client bug or abuse).
MAX_BODY_BYTES = 1 << 20
#: Deadline for reading one whole request (line, headers and body), idle
#: wait included.  A client that sends no first request, or less body
#: than its ``Content-Length``, gets a 408 instead of holding a server
#: task forever; a kept-alive connection that misses it is closed.
READ_TIMEOUT_SECONDS = 10.0

_CRLF = b"\r\n"


class _HttpError(Exception):
    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class SweepServer:
    """Async sweep service over one shared :class:`ResultCache`.

    Parameters
    ----------
    cache:
        The store to serve from — a :class:`ResultCache`, a directory
        path, or ``None`` for :data:`DEFAULT_CACHE_DIR`.  Its
        ``max_entries`` / ``ttl_seconds`` policy governs eviction.
    jobs:
        Worker processes for cache-miss simulation (tier-0 estimates
        run in-thread).  On platforms without ``fork`` misses run in a
        thread pool instead — slower, identical results.
    ctx:
        The execution context every query is keyed and simulated under
        (defaults to :class:`ExecContext`'s paper machine).  Protocol
        v1 serves one context per server, exactly like one cache
        directory serves one context's entries.
    """

    def __init__(
        self,
        cache: Union[None, str, ResultCache] = None,
        *,
        jobs: int = 2,
        host: str = "127.0.0.1",
        port: int = 0,
        ctx: Optional[ExecContext] = None,
    ) -> None:
        if isinstance(cache, ResultCache):
            self.cache = cache
        else:
            self.cache = ResultCache(cache if cache is not None else DEFAULT_CACHE_DIR)
        self.jobs = max(1, int(jobs))
        self.host = host
        self.port = int(port)
        self.ctx = ctx or ExecContext()
        self._ctx_digest = protocol.context_digest(self.ctx)
        self.perf = PerfRecorder("serve")
        self._inflight: dict[str, asyncio.Future] = {}
        self._runs: set[asyncio.Task] = set()
        self._conns: set[asyncio.Task] = set()
        # connections waiting for their next request line, hung up by close()
        self._idle: set[asyncio.StreamWriter] = set()
        self._closing = False
        self._runner = _executor.MissRunner(self.jobs, self.perf, "serve.pool_broken")
        self._server: Optional[asyncio.AbstractServer] = None
        self._t0 = 0.0
        self._c0 = 0.0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    async def start(self) -> "SweepServer":
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._t0 = perf_counter()
        self._c0 = process_time()
        return self

    async def close(self) -> None:
        """Stop accepting, stop the pool, stamp the lifetime telemetry."""
        if self._server is not None:
            self._server.close()
            # idle connections end now, not after the read deadline;
            # requests in flight drain below and then end theirs
            self._closing = True
            for writer in list(self._idle):
                self._hang_up(writer)
            await self._server.wait_closed()
            self._server = None
        if self._conns:
            # 3.11's Server.wait_closed does not wait for handlers;
            # drain them so no request is abandoned mid-stream
            await asyncio.wait(set(self._conns), timeout=10.0)
        # the requests are drained; nobody awaits these
        for fut in list(self._inflight.values()):
            fut.cancel()
        runs = list(self._runs)
        for task in runs:
            task.cancel()
        if runs:
            await asyncio.wait(runs, timeout=10.0)
        self._runner.shutdown(wait=False)
        self.perf.wall = perf_counter() - self._t0
        self.perf.cpu = process_time() - self._c0

    def write_ledger_record(self) -> Optional[dict[str, Any]]:
        """Append the server's lifetime record to the run ledger."""
        from repro.perf import Ledger, make_record

        try:
            ledger = Ledger()
            return ledger.append(
                make_record(
                    "serve",
                    "serve",
                    self.perf,
                    extra={
                        "cache": str(self.cache.root),
                        "jobs": self.jobs,
                        "entries": len(self.cache),
                    },
                )
            )
        except OSError:  # pragma: no cover - host FS dependent
            return None

    def stats(self) -> dict[str, Any]:
        """Live telemetry snapshot (the ``GET /stats`` document)."""
        snap = self.perf.snapshot()
        snap["wall_seconds"] = perf_counter() - self._t0 if self._t0 else 0.0
        snap["inflight"] = len(self._inflight)
        snap["store"] = {
            "root": str(self.cache.root),
            "entries": len(self.cache),
            "max_entries": self.cache.max_entries,
            "ttl_seconds": self.cache.ttl_seconds,
        }
        return snap

    # ------------------------------------------------------------------
    # cell resolution (claim, one probe job, the miss runner)
    # ------------------------------------------------------------------
    def _claim(
        self, keys: list[str], cells: list[SweepCell], ctx: ExecContext, trace: bool,
        refresh: bool,
    ) -> tuple[list[asyncio.Future], list[bool], Optional[asyncio.Future]]:
        """Claim a request's keys: each cell's resolution, whether the
        request joined it, and the request's probe job (``None`` when it
        probes nothing).

        The single-flight discipline: between looking a key up in
        ``_inflight`` and registering its resolution there is no
        ``await``, so exactly one resolution exists per key and every
        request that asks for it waits on the same future.  The future is
        the server's: a request only adds and removes its own callbacks,
        so one that is cancelled (its client left, or another of its
        cells crashed) stops waiting without touching the resolution
        other requests joined.  The keys this request registered are read
        in order by one executor job (:meth:`_probe_keys`); with
        ``refresh`` they go straight to the miss runner.
        """
        loop = asyncio.get_running_loop()
        futs, joined, owned = [], [], []
        for key, cell in zip(keys, cells):
            fut = self._inflight.get(key)
            joined.append(fut is not None)
            if fut is not None:
                self.perf.count("serve.dedup_hit")
            else:
                fut = loop.create_future()
                self._inflight[key] = fut
                fut.add_done_callback(functools.partial(self._resolved, key))
                if refresh:
                    self._run(key, cell, ctx, trace, fut)
                else:
                    owned.append((key, cell, fut))
            futs.append(fut)
        probe = None
        if owned:
            probe = loop.run_in_executor(None, self._probe_keys, loop, owned, ctx, trace)
        return futs, joined, probe

    def _probe(self, key: str, fidelity: int
               ) -> tuple[Optional[tuple[bytes, bool]], bool, float]:
        """Read ``key``'s entry (in a thread): its body and whether it
        records a cell error, or ``None`` for a miss; whether the miss
        is a stored entry that was refused; and the seconds the probe
        took, for the caller to count and observe on the loop.

        The store checks the framing (a truncated, corrupt or headerless
        file is refused) and parses only the header; its stamps must pass
        the local sweep's checks.  The body is never parsed.
        """
        t0 = perf_counter()
        hit = None
        entry = self.cache.read(key)
        if entry is not None and _executor._entry_usable(entry[0], fidelity):
            header, body = entry
            hit = body, header["kind"] == "error"
        refused = hit is None and (entry is not None or self.cache.refused(key))
        return hit, refused, perf_counter() - t0

    def _probe_keys(self, loop: asyncio.AbstractEventLoop, owned: list, ctx: ExecContext,
                    trace: bool) -> None:
        """One request's probe job, in one executor thread: read its
        claimed keys in order and hand the results to the loop in batches
        of 1, 4, 16, ... keys (the last batch takes what is left).  The
        first cell of a large matrix streams while the rest are still
        being probed, and no cell waits for more than about three times
        as many reads as came before it; a warm 36-cell query crosses to
        the loop in four callbacks.  Handing over each key alone costs a
        loop wake-up, and a write, per key wherever the loop runs on
        another CPU than the job."""
        batch: list = []
        quota, left = 1, len(owned)
        for key, cell, fut in owned:
            try:
                result: Any = self._probe(key, cell.fidelity)
            except Exception as exc:  # the key's waiters get the failure
                result = exc
            batch.append((key, cell, fut, result))
            left -= 1
            if len(batch) == quota or not left:
                try:
                    loop.call_soon_threadsafe(self._probed, batch, ctx, trace)
                except RuntimeError:  # the loop closed under a dropped request
                    return
                batch, quota = [], quota * 4

    def _probed(self, batch: list, ctx: ExecContext, trace: bool) -> None:
        """On the loop: settle each probed key of a batch with its hit, or
        hand the miss to the runner."""
        for key, cell, fut, result in batch:
            if fut.done():  # cancelled by close()
                continue
            if isinstance(result, Exception):
                fut.set_exception(result)
                continue
            hit, refused, seconds = result
            self.perf.observe("serve.probe_seconds", seconds)
            if hit is not None:
                self.perf.count("serve.cache_hit")
                fut.set_result((hit[0], hit[1], "hit"))
                continue
            if refused:
                self.perf.count("serve.corrupt")
            self._run(key, cell, ctx, trace, fut)

    def _run(self, key: str, cell: SweepCell, ctx: ExecContext, trace: bool,
             fut: asyncio.Future) -> None:
        """Resolve a miss in a server-owned task that settles ``fut``."""
        task = asyncio.ensure_future(self._run_key(key, cell, ctx, trace, fut))
        self._runs.add(task)
        task.add_done_callback(self._runs.discard)

    async def _run_key(self, key: str, cell: SweepCell, ctx: ExecContext, trace: bool,
                       fut: asyncio.Future) -> None:
        """A fresh run of ``key``, written through to the store; settles
        ``fut`` with ``(entry body, is error, "run")``, or with the
        failure of a crashed cell, which fails only the requests waiting
        on it."""
        try:
            t0, submitted = perf_counter(), monotonic()
            data, error, started = await asyncio.wrap_future(
                self._runner.submit(cell, ctx, trace))
            t1 = perf_counter()
            self.perf.count("serve.simulations" if cell.fidelity == 2 else "serve.estimates")
            self.perf.observe("serve.queue_seconds", started - submitted)
            self.perf.observe("serve.run_seconds", t1 - t0)
            try:
                await asyncio.get_running_loop().run_in_executor(
                    None, self.cache.put, key, data)
            except OSError:
                # a full or read-only store loses the entry, not the result:
                # the bytes still stream to every waiter
                self.perf.count("serve.store_error")
            else:
                self.perf.count("serve.store")
            self.perf.observe("serve.store_seconds", perf_counter() - t1)
        except Exception as exc:
            if not fut.done():
                fut.set_exception(exc)
            return
        if not fut.done():  # else cancelled by close()
            fut.set_result((entry_body(data), error, "run"))

    def _resolved(self, key: str, fut: asyncio.Future) -> None:
        if self._inflight.get(key) is fut:
            del self._inflight[key]
        if not fut.cancelled():
            # every waiter may have left; don't let an unobserved
            # exception warn at GC time
            fut.exception()

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Serve one connection's requests in turn, until it ends (see the
        module docstring for when)."""
        task = asyncio.current_task()
        if task is not None:
            self._conns.add(task)
        self.perf.count("serve.connection")
        served = False
        try:
            while True:
                try:
                    request = await asyncio.wait_for(
                        self._read_request(reader, writer), READ_TIMEOUT_SECONDS
                    )
                except asyncio.TimeoutError:
                    if not served:
                        self.perf.count("serve.read_timeout")
                        await self._respond_json(
                            writer, 408, {"error": "request not received in time"}
                        )
                    return
                except _HttpError as exc:
                    await self._respond_json(
                        writer, exc.status, {"error": str(exc)}
                    )
                    return
                if request is None:  # closed between requests, or shutting down
                    return
                method, path, body, close = request
                if method == "GET" and path in ("/healthz", "/health"):
                    await self._respond_json(writer, 200, {"ok": True}, close)
                elif method == "GET" and path == "/stats":
                    await self._respond_json(writer, 200, self.stats(), close)
                elif method == "POST" and path == "/sweep":
                    close = await self._handle_sweep(writer, body, close)
                else:
                    await self._respond_json(
                        writer, 404, {"error": f"no route {method} {path}"}
                    )
                    return
                if close:
                    return
                served = True
        except (ConnectionError, asyncio.IncompleteReadError):
            self.perf.count("serve.client_dropped")  # nothing to answer
        finally:
            if task is not None:
                self._conns.discard(task)
            self._hang_up(writer)
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    @staticmethod
    def _hang_up(writer: asyncio.StreamWriter) -> None:
        """Shut the connection's socket down, then close it.

        A pool worker forked while the connection was open holds a copy
        of its fd, and a bare close sends no FIN while any copy is open:
        the client's next request on a kept-alive connection would then
        wait out its timeout.  The shutdown sends the FIN whoever holds
        the fd, so that request fails at once and the client retries.
        """
        try:
            if writer.can_write_eof():
                writer.write_eof()
        except OSError:  # the client reset it first
            pass
        writer.close()

    async def _read_request(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> Optional[tuple[str, str, bytes, bool]]:
        """Read one request: its method, path, body and whether the client
        asked to close the connection after it; ``None`` when the
        connection ends before a request line arrives, or the server is
        closing."""
        # the check and the registration run in one step, so close()
        # either sees this connection idle or this sees close() began
        if self._closing:
            return None
        self._idle.add(writer)
        try:
            request_line = await self._readline(reader)
        except ConnectionError:  # reset while idle: nothing was asked
            return None
        finally:
            self._idle.discard(writer)
        if not request_line:
            return None
        parts = request_line.decode("latin-1").split()
        if len(parts) < 3:
            raise _HttpError(400, "malformed request line")
        method, target = parts[0].upper(), parts[1]
        close = parts[2] == "HTTP/1.0"
        content_length = 0
        while True:
            line = await self._readline(reader)
            if line in (_CRLF, b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            name = name.strip().lower()
            if name == "content-length":
                try:
                    content_length = int(value.strip())
                except ValueError as exc:
                    raise _HttpError(400, "bad Content-Length") from exc
            elif name == "connection" and "close" in value.lower():
                close = True
        if content_length > MAX_BODY_BYTES:
            raise _HttpError(413, "request body too large")
        body = await reader.readexactly(content_length) if content_length else b""
        return method, target.split("?", 1)[0], body, close

    async def _readline(self, reader: asyncio.StreamReader) -> bytes:
        """One request line or header; 431 past the stream's line limit."""
        try:
            return await reader.readline()
        except ValueError as exc:  # asyncio's LimitOverrunError, re-raised
            self.perf.count("serve.bad_request")
            raise _HttpError(431, "request line or header too large") from exc

    @staticmethod
    def _head(
        status: int,
        content_type: str,
        *,
        content_length: Optional[int] = None,
        chunked: bool = False,
        close: bool = False,
    ) -> bytes:
        """The status line and headers; ``Connection: close`` when the
        server ends the connection after this answer.

        Responses are explicitly framed (``Content-Length`` or chunked
        transfer-encoding) rather than close-delimited, which is what
        lets a connection carry the next request.  Framing matters even
        for a connection that ends: pool workers forked mid-stream
        inherit the connection fd, so a client waiting for EOF could wait
        for the *worker's* lifetime, not the response's; and the server
        shuts the socket down before closing it (:meth:`_hang_up`), or a
        kept-alive client's next request would wait on that worker too.
        """
        reason = {200: "OK", 400: "Bad Request", 404: "Not Found",
                  408: "Request Timeout", 413: "Payload Too Large",
                  431: "Request Header Fields Too Large",
                  500: "Internal Server Error"}
        head = (
            f"HTTP/1.1 {status} {reason.get(status, 'Status')}\r\n"
            f"Content-Type: {content_type}\r\n"
            "Cache-Control: no-store\r\n"
        )
        if close:
            head += "Connection: close\r\n"
        if chunked:
            head += "Transfer-Encoding: chunked\r\n"
        elif content_length is not None:
            head += f"Content-Length: {content_length}\r\n"
        return (head + "\r\n").encode("latin-1")

    @staticmethod
    def _chunk(out: list, *parts: Any) -> None:
        """Append one HTTP/1.1 chunk of ``parts`` to ``out``, unjoined;
        no parts is the terminator."""
        size = sum(len(part) for part in parts)
        out.append(f"{size:x}\r\n".encode("latin-1"))
        out.extend(parts)
        out.append(_CRLF)

    async def _respond_json(
        self, writer: asyncio.StreamWriter, status: int, doc: dict[str, Any],
        close: bool = True,
    ) -> None:
        body = json.dumps(doc, separators=(",", ":")).encode("utf-8") + b"\n"
        writer.write(self._head(status, "application/json", content_length=len(body),
                                close=close) + body)
        await writer.drain()

    # ------------------------------------------------------------------
    # the sweep route
    # ------------------------------------------------------------------
    async def _handle_sweep(self, writer: asyncio.StreamWriter, body: bytes,
                            close: bool) -> bool:
        """Answer one ``POST /sweep``; whether the connection must close
        after it (the client asked, the query was refused, or a cell
        crashed)."""
        self.perf.count("serve.request")
        t0 = perf_counter()
        try:
            query = MatrixQuery.from_dict(json.loads(body.decode("utf-8")))
            _spec, config, cells = protocol.expand_query(query)
        except (KeyError, ValueError, ProtocolError) as exc:
            # KeyError: get_workload's unknown-workload complaint
            self.perf.count("serve.bad_request")
            await self._respond_json(writer, 400, {"error": str(exc)})
            return True
        ctx = self.ctx.with_fidelity(query.fidelity)
        keys = [cache_key(c, ctx, trace=query.trace) for c in cells]
        self.perf.count("serve.cells", len(cells))
        futs, joined, probe = self._claim(keys, cells, ctx, query.trace, query.refresh)

        # the writer wakes whenever cells have settled, and sends them in
        # one write; its first wake-up is the first settled cell or the end
        # of the probe job (at once when there is none), so a cold query
        # still sends its start event before anything has run
        wake, settled = asyncio.Event(), []

        def land(i: int, _fut: asyncio.Future) -> None:
            settled.append(i)
            wake.set()

        waits = [functools.partial(land, i) for i in range(len(cells))]
        for fut, callback in zip(futs, waits):
            fut.add_done_callback(callback)
        if probe is None:
            wake.set()
        else:
            probe.add_done_callback(lambda _probe: wake.set())

        counters = {"cells": len(cells), "hits": 0, "runs": 0, "errors": 0,
                    "dedup_joins": 0}
        out = [self._head(200, "application/x-ndjson", chunked=True, close=close)]
        self._chunk(out, protocol.encode_event(protocol.start_event(
            len(cells), query.workload, self._ctx_digest)))
        left = len(cells)
        stored = False
        try:
            while True:
                await wake.wait()
                wake.clear()
                batch = settled[:]
                settled.clear()
                for i in batch:
                    left -= 1
                    exc = futs[i].exception()
                    if exc is not None:
                        # a crashed cell aborts the request, not the server
                        self.perf.count("serve.failed_request")
                        self._chunk(out, protocol.encode_event(protocol.fatal_event(str(exc))))
                        self._chunk(out)
                        writer.write(b"".join(out))
                        await writer.drain()
                        return True
                    data, error, status = futs[i].result()
                    futs[i] = None  # the batch holds the body until it is sent
                    if joined[i]:
                        # another request's single flight did the work; this
                        # request performed no simulation of its own
                        counters["dedup_joins"] += 1
                        status = "run"
                    if status == "hit":
                        counters["hits"] += 1
                    else:
                        counters["runs"] += 1
                        stored = stored or not joined[i]
                    if error:
                        # orthogonal to how the cell was resolved: a cached
                        # or fresh cell error is still a hit/run above
                        status = "error"
                        counters["errors"] += 1
                    # the entry's body without its trailing newline
                    self._chunk(out, *protocol.cell_event_parts(
                        cells[i].version, cells[i].nthreads, keys[i], status,
                        memoryview(data)[:-1],
                    ))
                if not left:
                    self._chunk(out, protocol.encode_event(protocol.end_event(counters)))
                    self._chunk(out)
                if out:
                    writer.write(b"".join(out))
                    out = []
                    await writer.drain()
                if not left:
                    return close
        finally:
            # a crashed cell, a dropped client or a closing server ends the
            # request's waiting, not the resolutions its keys share
            for fut, callback in zip(futs, waits):
                if fut is not None:
                    fut.remove_done_callback(callback)
            self.perf.observe("serve.request_seconds", perf_counter() - t0)
            if stored and (
                self.cache.max_entries is not None or self.cache.ttl_seconds is not None
            ):
                evicted = await asyncio.get_running_loop().run_in_executor(
                    None, self.cache.prune
                )
                if evicted:
                    self.perf.count("serve.evictions", evicted)


# ---------------------------------------------------------------------------
# CLI entry point (``repro serve``)
# ---------------------------------------------------------------------------
async def _serve_until_stopped(server: SweepServer, quiet: bool) -> None:
    await server.start()
    if not quiet:
        print(
            f"repro serve: listening on {server.url} "
            f"(store {server.cache.root}, jobs={server.jobs})",
            file=sys.stderr,
            flush=True,
        )
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    import signal

    for sig in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(sig, stop.set)
        except (NotImplementedError, RuntimeError):  # pragma: no cover - non-POSIX
            pass
    try:
        await stop.wait()
    finally:
        await server.close()
        record = server.write_ledger_record()
        if not quiet:
            counters = server.perf.counters
            print(
                "repro serve: stopped "
                f"(requests={counters.get('serve.request', 0)}, "
                f"dedup_hits={counters.get('serve.dedup_hit', 0)}, "
                f"cache_hits={counters.get('serve.cache_hit', 0)}, "
                f"simulations={counters.get('serve.simulations', 0)}, "
                f"estimates={counters.get('serve.estimates', 0)})"
                + ("" if record is None else " — ledger record appended"),
                file=sys.stderr,
                flush=True,
            )


def main(
    *,
    host: str = "127.0.0.1",
    port: int = 8765,
    cache_dir: Union[None, str] = None,
    jobs: int = 2,
    max_entries: Optional[int] = None,
    ttl_seconds: Optional[float] = None,
    quiet: bool = False,
) -> int:
    """Blocking server entry point behind ``repro serve``."""
    cache = ResultCache(
        cache_dir if cache_dir is not None else DEFAULT_CACHE_DIR,
        max_entries=max_entries,
        ttl_seconds=ttl_seconds,
    )
    server = SweepServer(cache, jobs=jobs, host=host, port=port)
    try:
        asyncio.run(_serve_until_stopped(server, quiet))
    except KeyboardInterrupt:  # pragma: no cover - signal path races
        pass
    return 0
