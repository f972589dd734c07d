"""Tests of :class:`SweepClient`'s HTTP/1.1 framing, retry and timeout
rules, against a scripted raw-socket peer.

The peer answers each request with the next scripted reply, byte for
byte, so a test can cut a reply anywhere: one byte per send, a line
across chunks, a chunk cut short, a connection closed before its
answer.  Every client here has a short timeout, so a client that hangs
on a broken reply fails with ``TimeoutError`` instead of stalling the
suite.
"""

from __future__ import annotations

import json
import socket
import struct
import threading
import time

import pytest

from repro.serve import MatrixQuery, ServerError, SweepClient
from repro.serve import protocol

QUERY = MatrixQuery("axpy", versions=("omp_for",), threads=(1, 4), fidelity=0)
START = protocol.encode_event({"type": "start", "cells": 2})
CELL1 = protocol.encode_event({"type": "cell", "nthreads": 1, "payload": {"x": [1, 2]}})
CELL4 = protocol.encode_event({"type": "cell", "nthreads": 4, "payload": {"x": [3]}})
END = protocol.encode_event({"type": "end", "counters": {"hits": 2}})
EVENTS = [json.loads(line) for line in (START, CELL1, CELL4, END)]


def head(status=200, *headers, version=b"HTTP/1.1"):
    """A status line and headers, and the blank line that ends them."""
    lines = [b"%s %d X" % (version, status), *headers]
    return b"".join(line + b"\r\n" for line in lines) + b"\r\n"


def chunk(data, size=None):
    """One chunk; ``size`` replaces its chunk-size field."""
    return b"%s\r\n%s\r\n" % (size or b"%x" % len(data), data)


def stream(*chunks, version=b"HTTP/1.1", headers=()):
    """A 200 chunked reply of ``chunks`` and the terminator."""
    return (head(200, b"Transfer-Encoding: chunked", *headers, version=version)
            + b"".join(chunks) + b"0\r\n\r\n")


#: the four events, one chunk each, as the service sends them
REPLY = stream(*(chunk(line) for line in (START, CELL1, CELL4, END)))


def send(data, *, bytewise=False, keep=True):
    """A scripted reply that sends ``data``, whole or one byte per
    ``send``, then keeps or closes the connection."""
    def reply(conn):
        if bytewise:
            for i in range(len(data)):
                conn.sendall(data[i:i + 1])
                time.sleep(1e-4)
        else:
            conn.sendall(data)
        return keep
    return reply


def hang_up(reset=False):
    """A scripted reply that closes the connection without an answer,
    with a FIN or (``reset``) an RST."""
    def reply(conn):
        if reset:
            conn.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        else:
            conn.shutdown(socket.SHUT_WR)
        return False
    return reply


class ScriptedPeer:
    """A one-thread HTTP peer: it reads each request whole and answers
    it with the next scripted reply; a reply returns whether the
    connection stays open for the next request."""

    def __init__(self, *replies):
        self.replies = list(replies)
        self.requests: list[bytes] = []
        self.accepted = 0
        self.client_closed = threading.Event()  # the client ended a connection
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.listener.settimeout(10)
        self.url = "http://127.0.0.1:%d" % self.listener.getsockname()[1]
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    def _serve(self):
        while self.replies:
            try:
                conn, _ = self.listener.accept()
            except OSError:
                return
            self.accepted += 1
            with conn:
                conn.settimeout(10)
                try:
                    while self.replies:
                        request = self._read_request(conn)
                        if request is None:
                            self.client_closed.set()
                            break
                        self.requests.append(request)
                        if not self.replies.pop(0)(conn):
                            break
                except OSError:  # the client reset the connection
                    self.client_closed.set()

    @staticmethod
    def _read_request(conn):
        data = b""
        while b"\r\n\r\n" not in data:
            more = conn.recv(1 << 16)
            if not more:
                return None
            data += more
        head_bytes, _, body = data.partition(b"\r\n\r\n")
        length = 0
        for line in head_bytes.split(b"\r\n")[1:]:
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        while len(body) < length:
            body += conn.recv(1 << 16)
        return data

    def close(self):
        try:
            self.listener.shutdown(socket.SHUT_RDWR)  # wakes a pending accept
        except OSError:
            pass
        self.listener.close()
        self.thread.join(10)
        assert not self.thread.is_alive()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()


def collect(client, query=QUERY):
    """The events a query yields before it ends or raises, and what it
    raised."""
    events = []
    try:
        for event in client.query(query):
            events.append(event)
    except Exception as exc:
        return events, exc
    return events, None


# ---------------------------------------------------------------------------
# requests
# ---------------------------------------------------------------------------
class TestRequest:
    def test_a_query_is_one_write(self, monkeypatch):
        """The request line, headers and body leave in one ``sendall``."""
        writes = []
        real = socket.socket.sendall

        def counted(sock, data, *args):
            if threading.current_thread() is threading.main_thread():
                writes.append(bytes(data))
            return real(sock, data, *args)

        monkeypatch.setattr(socket.socket, "sendall", counted)
        with ScriptedPeer(send(REPLY)) as peer, SweepClient(peer.url, timeout=5) as client:
            assert list(client.query(QUERY)) == EVENTS
        body = json.dumps(QUERY.to_dict(), separators=(",", ":")).encode()
        port = peer.url.rsplit(":", 1)[1]
        assert writes == peer.requests == [
            b"POST /sweep HTTP/1.1\r\nHost: 127.0.0.1:%s\r\n"
            b"Content-Type: application/json\r\nContent-Length: %d\r\n\r\n%s"
            % (port.encode(), len(body), body)
        ]

    def test_get_is_one_write_without_a_body(self):
        stats = json.dumps({"counters": {}}).encode()
        reply = head(200, b"Content-Length: %d" % len(stats)) + stats
        with ScriptedPeer(send(reply)) as peer, SweepClient(peer.url, timeout=5) as client:
            assert client.stats() == {"counters": {}}
        port = peer.url.rsplit(":", 1)[1].encode()
        assert peer.requests == [b"GET /stats HTTP/1.1\r\nHost: 127.0.0.1:%s\r\n\r\n" % port]


# ---------------------------------------------------------------------------
# framing of the replies
# ---------------------------------------------------------------------------
class TestFraming:
    def test_reply_one_byte_per_send(self):
        """A reply that arrives one byte per ``send`` reads whole, and
        its connection carries the next query."""
        with ScriptedPeer(send(REPLY, bytewise=True), send(REPLY)) as peer, \
                SweepClient(peer.url, timeout=5) as client:
            assert list(client.query(QUERY)) == EVENTS
            assert len(client._idle) == 1
            assert list(client.query(QUERY)) == EVENTS
        assert peer.accepted == 1

    def test_line_split_across_chunks(self):
        split = len(CELL1) // 2
        reply = stream(chunk(START), chunk(CELL1[:split]), chunk(CELL1[split:]),
                       chunk(CELL4 + END))
        with ScriptedPeer(send(reply)) as peer, SweepClient(peer.url, timeout=5) as client:
            assert list(client.query(QUERY)) == EVENTS
            assert len(client._idle) == 1

    def test_two_lines_in_one_chunk(self):
        reply = stream(chunk(START + CELL1), chunk(CELL4), chunk(END))
        with ScriptedPeer(send(reply)) as peer, SweepClient(peer.url, timeout=5) as client:
            assert list(client.query(QUERY)) == EVENTS

    def test_chunk_size_extension(self):
        """A chunk-size field may carry an extension (``1a;x=y``)."""
        reply = stream(*(chunk(line, b"%x;x=y" % len(line))
                         for line in (START, CELL1, CELL4, END)))
        with ScriptedPeer(send(reply)) as peer, SweepClient(peer.url, timeout=5) as client:
            assert list(client.query(QUERY)) == EVENTS

    def test_blank_lines_are_skipped(self):
        reply = stream(chunk(b"\n" + START), chunk(CELL1 + b"\r\n"), chunk(CELL4),
                       chunk(END + b"\n"))
        with ScriptedPeer(send(reply)) as peer, SweepClient(peer.url, timeout=5) as client:
            assert list(client.query(QUERY)) == EVENTS
            assert len(client._idle) == 1

    def test_content_length_stream(self):
        """A 200 framed by ``Content-Length`` instead of chunks reads the
        same events."""
        data = START + CELL1 + CELL4 + END
        reply = head(200, b"Content-Length: %d" % len(data)) + data
        with ScriptedPeer(send(reply)) as peer, SweepClient(peer.url, timeout=5) as client:
            assert list(client.query(QUERY)) == EVENTS
            assert len(client._idle) == 1

    @pytest.mark.parametrize("tail, match", [
        # a chunk-size field that is not hex
        (b"zz\r\n" + CELL4 + b"\r\n0\r\n\r\n", "malformed chunk size"),
        # a negative or prefixed size is not hex digits either
        (b"-1\r\n", "malformed chunk size"),
        (b"0x10\r\n" + CELL4[:16] + b"\r\n0\r\n\r\n", "malformed chunk size"),
        # EOF mid-chunk: fewer bytes than the size says
        (b"%x\r\n" % len(CELL4) + CELL4[:10], "stream ended"),
        # EOF mid-line: the line's first half in a whole chunk, then EOF
        (chunk(CELL4[:10]), "stream ended"),
        # the terminator with a line left open
        (chunk(CELL4[:10]) + b"0\r\n\r\n", "stream ended mid-line"),
        # the terminator before the 'end' event
        (b"0\r\n\r\n", "before the 'end' event"),
        # a chunk not closed by CRLF
        (b"%x\r\n" % len(CELL4) + CELL4 + b"XX", "CRLF"),
    ], ids=["not-hex", "negative", "0x-prefix", "eof-mid-chunk", "eof-mid-line",
            "terminator-mid-line", "no-end", "no-crlf"])
    def test_broken_stream_raises_without_a_partial_event(self, tail, match):
        """A broken stream raises ``ServerError`` at once, after the
        events that arrived whole and none of the broken one; its
        connection is closed, not pooled."""
        reply = (head(200, b"Transfer-Encoding: chunked") + chunk(START) + chunk(CELL1)
                 + tail)
        with ScriptedPeer(send(reply, keep=False)) as peer, \
                SweepClient(peer.url, timeout=5) as client:
            t0 = time.monotonic()
            events, exc = collect(client)
            assert time.monotonic() - t0 < 2.0
            assert isinstance(exc, ServerError), exc
            assert match in str(exc)
            assert events == EVENTS[:2]
            assert client._idle == []

    def test_eof_mid_status_line_raises(self):
        with ScriptedPeer(send(b"HTTP/1.1 20", keep=False)) as peer, \
                SweepClient(peer.url, timeout=5) as client:
            with pytest.raises(ServerError, match="malformed status line"):
                list(client.query(QUERY))

    def test_eof_mid_head_raises(self):
        reply = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n"
        with ScriptedPeer(send(reply, keep=False)) as peer, \
                SweepClient(peer.url, timeout=5) as client:
            with pytest.raises(ServerError, match="reply head cut short"):
                list(client.query(QUERY))

    def test_bytes_after_end_are_an_error(self):
        for reply in (stream(chunk(START + CELL1 + CELL4 + END + b'{"type":"cell"}\n')),
                      stream(chunk(START), chunk(CELL1), chunk(CELL4), chunk(END),
                             chunk(b"junk")),
                      stream(chunk(START), chunk(CELL1), chunk(CELL4), chunk(END + b"x"))):
            with ScriptedPeer(send(reply)) as peer, SweepClient(peer.url, timeout=5) as client:
                events, exc = collect(client)
                assert isinstance(exc, ServerError) and "after the 'end' event" in str(exc)
                assert events == EVENTS[:3]
                assert client._idle == []

    @pytest.mark.parametrize("status", [400, 413])
    @pytest.mark.parametrize("close", [True, False], ids=["close", "keep-alive"])
    def test_error_answer_raises_with_its_detail(self, status, close):
        """A refused query raises ``ServerError`` naming the status and
        the body, and its connection is not pooled even when the server
        would keep it."""
        body = b'{"error":"refused for a reason"}\n'
        headers = [b"Content-Length: %d" % len(body)]
        if close:
            headers.append(b"Connection: close")
        with ScriptedPeer(send(head(status, *headers) + body)) as peer, \
                SweepClient(peer.url, timeout=5) as client:
            with pytest.raises(ServerError, match=f"{status}.*refused for a reason"):
                list(client.query(QUERY))
            assert client._idle == []

    @pytest.mark.parametrize("reply", [
        stream(*(chunk(line) for line in (START, CELL1, CELL4, END)), version=b"HTTP/1.0"),
        stream(*(chunk(line) for line in (START, CELL1, CELL4, END)),
               headers=[b"Connection: close"]),
    ], ids=["http-1.0", "connection-close"])
    def test_closing_reply_is_not_pooled(self, reply):
        """An ``HTTP/1.0`` reply or one marked ``Connection: close`` is
        read whole and its connection closed; the next query opens a
        new one."""
        with ScriptedPeer(send(reply, keep=False), send(REPLY)) as peer, \
                SweepClient(peer.url, timeout=5) as client:
            assert list(client.query(QUERY)) == EVENTS
            assert client._idle == []
            assert list(client.query(QUERY)) == EVENTS
            assert len(client._idle) == 1
        assert peer.accepted == 2

    def test_json_replies_are_pooled_by_their_framing(self):
        """A ``Content-Length`` or chunked JSON reply leaves its
        connection pooled; a reply framed by neither is read to the end
        of the connection, which is then closed."""
        doc = b'{"ok":true}'
        sized = head(200, b"Content-Length: %d" % len(doc)) + doc
        chunked = head(200, b"Transfer-Encoding: chunked") + chunk(doc[:5]) + chunk(doc[5:]) \
            + b"0\r\n\r\n"
        with ScriptedPeer(send(sized), send(chunked), send(head(200) + doc, keep=False),
                          send(sized)) as peer, SweepClient(peer.url, timeout=5) as client:
            for pooled in (1, 1, 0, 1):
                assert client.health()
                assert len(client._idle) == pooled
        assert peer.accepted == 2


# ---------------------------------------------------------------------------
# retry and timeout rules
# ---------------------------------------------------------------------------
class TestRetryAndTimeout:
    @pytest.mark.parametrize("reset", [False, True], ids=["eof", "reset"])
    def test_reused_connection_failing_before_the_answer_is_retried_once(self, reset):
        """A request on an idle connection that the server closes before
        the status line goes once more, on a new connection."""
        with ScriptedPeer(send(REPLY), hang_up(reset), send(REPLY)) as peer, \
                SweepClient(peer.url, timeout=5) as client:
            assert list(client.query(QUERY)) == EVENTS
            assert list(client.query(QUERY)) == EVENTS
            assert len(client._idle) == 1
        assert peer.accepted == 2
        assert len(peer.requests) == 3

    def test_idle_connection_closed_before_the_request_is_retried(self):
        """The server hangs up an idle connection before the next request
        is sent; that request goes again on a new connection."""
        with ScriptedPeer(send(REPLY, keep=False), send(REPLY)) as peer, \
                SweepClient(peer.url, timeout=5) as client:
            # the reply does not say the connection closes, so it is pooled
            assert list(client.query(QUERY)) == EVENTS
            assert len(client._idle) == 1
            time.sleep(0.05)  # the peer's FIN arrives
            assert list(client.query(QUERY)) == EVENTS
        assert peer.accepted == 2
        assert len(peer.requests) == 2

    def test_retry_is_sent_only_once(self):
        with ScriptedPeer(send(REPLY), hang_up(), hang_up(), send(REPLY)) as peer, \
                SweepClient(peer.url, timeout=5) as client:
            assert list(client.query(QUERY)) == EVENTS
            with pytest.raises(ConnectionError):
                list(client.query(QUERY))
            assert client._idle == []
            assert peer.accepted == 2
            assert len(peer.requests) == 3
            assert list(client.query(QUERY)) == EVENTS  # the peer's last reply

    @pytest.mark.parametrize("reset", [False, True], ids=["eof", "reset"])
    def test_fresh_connection_failing_raises(self, reset):
        with ScriptedPeer(hang_up(reset), send(REPLY)) as peer, \
                SweepClient(peer.url, timeout=5) as client:
            with pytest.raises(ConnectionError):
                list(client.query(QUERY))
            assert peer.accepted == 1
            assert client._idle == []
            assert list(client.query(QUERY)) == EVENTS  # the peer's last reply

    def test_stall_mid_stream_times_out_and_closes(self):
        """A server that stalls mid-stream past the client's timeout
        raises ``TimeoutError`` after the events that arrived, and the
        connection is closed, not pooled."""
        released = threading.Event()

        def stall(conn):
            conn.sendall(head(200, b"Transfer-Encoding: chunked") + chunk(START))
            released.wait(10)
            return True

        with ScriptedPeer(stall, send(REPLY)) as peer, \
                SweepClient(peer.url, timeout=0.3) as client:
            t0 = time.monotonic()
            events, exc = collect(client)
            elapsed = time.monotonic() - t0
            released.set()
            assert isinstance(exc, TimeoutError), exc
            assert 0.25 < elapsed < 3.0
            assert events == EVENTS[:1]
            assert client._idle == []
            assert peer.client_closed.wait(5)  # the client hung up
            assert list(client.query(QUERY)) == EVENTS
        assert peer.accepted == 2

    def test_stopping_early_closes_the_connection(self):
        """A caller that stops before the ``end`` event leaves the
        stream unfinished: the connection is closed, not pooled."""
        with ScriptedPeer(send(REPLY), send(REPLY)) as peer, \
                SweepClient(peer.url, timeout=5) as client:
            events = client.query(QUERY)
            assert next(events) == EVENTS[0]
            events.close()
            assert client._idle == []
            assert peer.client_closed.wait(5)
            assert list(client.query(QUERY)) == EVENTS
        assert peer.accepted == 2
