"""Wire protocol of the sweep service: matrix queries and NDJSON events.

The service speaks minimal HTTP/1.1 carrying a thin JSON protocol —
no framework, no new dependencies:

- ``POST /sweep`` with a :class:`MatrixQuery` JSON body answers with a
  chunk-framed ``application/x-ndjson`` stream: one ``start`` event,
  one ``cell`` event *per cell as it lands* (cache hit, fresh
  simulation, or recorded cell error), and one ``end`` event carrying
  the request's accounting counters.  Cells stream in completion
  order; each names its ``(version, nthreads)`` slot so the client can
  assemble the canonical :class:`~repro.core.experiment.SweepResult`
  regardless of arrival order.
- ``GET /stats`` answers with the server's lifetime telemetry snapshot
  (the ``serve.*`` counters — requests, single-flight dedup hits,
  cache hits, simulations — plus store and in-flight gauges).
- ``GET /healthz`` answers ``{"ok": true}``.

Every ``cell`` event's ``payload`` is the entry body: the *exact*
cache-entry document the direct ``run_sweep`` path stores and replays,
down to the byte.  An entry file is a short header line (stamps, body
length, CRC) and that body; the server splices the body into the event
(:func:`cell_event_parts`), whether it read it from the store or its
worker just encoded the entry (:func:`repro.sweep.cache.encode_entry`).
The header never goes on the wire.  A served result therefore decodes
byte-identically to a local one — the protocol adds framing, never
representation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Mapping, Optional

from repro.core.experiment import PAPER_THREADS
from repro.sweep.cache import context_identity

__all__ = [
    "PROTOCOL_VERSION",
    "MatrixQuery",
    "ProtocolError",
    "cell_event",
    "cell_event_parts",
    "decode_event",
    "encode_event",
    "end_event",
    "expand_query",
    "fatal_event",
    "start_event",
]

#: Bump when the event vocabulary or query schema changes shape.
PROTOCOL_VERSION = 1

_QUERY_FIELDS = {
    "workload", "versions", "threads", "params", "fidelity", "trace", "refresh",
}


class ProtocolError(ValueError):
    """A malformed query or event document."""


@dataclass(frozen=True)
class MatrixQuery:
    """One experiment-matrix query: the sweep service's unit of request.

    Mirrors :func:`repro.sweep.run_sweep`'s cell-determining arguments
    (workload, versions, threads, params, fidelity, trace) plus the
    ``refresh`` escape hatch.  Jobs/caching are the *server's* policy,
    so they are deliberately absent; fault injection and validation are
    not part of protocol v1 (the local path serves those).
    """

    workload: str
    versions: Optional[tuple[str, ...]] = None
    threads: tuple[int, ...] = tuple(PAPER_THREADS)
    params: Mapping[str, Any] = field(default_factory=dict)
    fidelity: int = 2
    trace: bool = False
    refresh: bool = False

    def __post_init__(self) -> None:
        if not self.workload or not isinstance(self.workload, str):
            raise ProtocolError("workload must be a non-empty string")
        if type(self.fidelity) is not int or self.fidelity not in (0, 2):
            raise ProtocolError(f"fidelity must be 0 or 2, got {self.fidelity!r}")
        if not self.threads:
            raise ProtocolError("threads must be non-empty")
        object.__setattr__(self, "threads", tuple(int(p) for p in self.threads))
        if self.versions is not None:
            object.__setattr__(
                self, "versions", tuple(str(v) for v in self.versions)
            )
        object.__setattr__(self, "params", dict(self.params))

    def to_dict(self) -> dict[str, Any]:
        doc: dict[str, Any] = {
            "workload": self.workload,
            "threads": list(self.threads),
            "params": dict(self.params),
            "fidelity": self.fidelity,
            "trace": self.trace,
            "refresh": self.refresh,
        }
        if self.versions is not None:
            doc["versions"] = list(self.versions)
        return doc

    @classmethod
    def from_dict(cls, doc: Mapping[str, Any]) -> "MatrixQuery":
        if not isinstance(doc, Mapping):
            raise ProtocolError("query must be a JSON object")
        unknown = set(doc) - _QUERY_FIELDS
        if unknown:
            raise ProtocolError(f"unknown query fields: {sorted(unknown)}")
        if "workload" not in doc:
            raise ProtocolError("query is missing 'workload'")
        kwargs: dict[str, Any] = {"workload": doc["workload"]}
        if doc.get("versions") is not None:
            kwargs["versions"] = tuple(_typed_list(doc, "versions", str))
        if doc.get("threads") is not None:
            kwargs["threads"] = tuple(_typed_list(doc, "threads", int))
        params = doc.get("params") or {}
        if not isinstance(params, Mapping):
            raise ProtocolError(f"params must be an object, got {params!r}")
        kwargs["params"] = params
        kwargs["fidelity"] = doc.get("fidelity", 2)
        for flag in ("trace", "refresh"):
            value = doc.get(flag, False)
            if not isinstance(value, bool):
                raise ProtocolError(f"{flag} must be a boolean, got {value!r}")
            kwargs[flag] = value
        return cls(**kwargs)


def _typed_list(doc: Mapping[str, Any], name: str, kind: type) -> list:
    """``doc[name]`` as a JSON array whose items are all ``kind`` (a
    JSON ``true`` is not an int here)."""
    value = doc[name]
    if not isinstance(value, list) or not all(
        type(item) is kind for item in value
    ):
        raise ProtocolError(
            f"{name} must be an array of {kind.__name__}s, got {value!r}"
        )
    return value


def context_digest(ctx) -> str:
    """Fingerprint of everything an :class:`ExecContext` contributes to
    cell identity (machine, costs, seed, budgets — *not* fidelity,
    which is per-query).  The server advertises its digest in every
    ``start`` event; the client compares against its own expectation,
    so a server simulating a different machine answers with a protocol
    error instead of silently-wrong numbers.  It is the SHA-256 of the
    identity document the cache keys splice in
    (:func:`repro.sweep.cache.context_identity`), computed once per
    context."""
    return context_identity(ctx)[1]


# ---------------------------------------------------------------------------
# NDJSON events
# ---------------------------------------------------------------------------
def start_event(total: int, workload: str, ctx_digest: str = "") -> dict[str, Any]:
    return {
        "type": "start",
        "protocol": PROTOCOL_VERSION,
        "workload": workload,
        "total": int(total),
        "ctx": ctx_digest,
    }


def cell_event(
    version: str,
    nthreads: int,
    key: str,
    status: str,
    payload: Optional[dict[str, Any]],
) -> dict[str, Any]:
    """One settled cell.  ``status`` is ``hit`` (served from the store),
    ``run`` (freshly simulated/estimated — possibly by *another*
    request this one single-flighted onto), or ``error`` (an expected
    cell error, carried in ``payload["error"]``)."""
    return {
        "type": "cell",
        "version": version,
        "nthreads": int(nthreads),
        "key": key,
        "status": status,
        "payload": payload,
    }


def end_event(counters: Mapping[str, int]) -> dict[str, Any]:
    return {"type": "end", "counters": {k: int(v) for k, v in sorted(counters.items())}}


def fatal_event(message: str) -> dict[str, Any]:
    return {"type": "fatal", "error": str(message)}


def encode_event(event: Mapping[str, Any]) -> bytes:
    """One NDJSON line, ready to write to the stream."""
    return json.dumps(event, separators=(",", ":")).encode("utf-8") + b"\n"


def cell_event_parts(
    version: str, nthreads: int, key: str, status: str, payload: Any
) -> tuple[bytes, Any, bytes]:
    """The NDJSON line of a :func:`cell_event` whose payload is already
    encoded, as three pieces to join: the event up to its payload,
    ``payload`` itself, and the closing brace and newline.  ``payload``
    is one compact JSON object with no raw newline (an entry's body
    without its trailing newline, as bytes or a view of them).

    The payload is the event's last key, and :func:`encode_event` uses
    the entry encoding's separators, so the joined line is
    byte-identical to ``encode_event(cell_event(..., json.loads(payload)))``;
    the server forwards a document it never parses or dumps on its event
    loop, and joins the pieces once, into the write that sends them.
    """
    head = encode_event(cell_event(version, nthreads, key, status, None))
    # cut the placeholder's ``null}`` + newline; the payload goes there
    return head[:-6], payload, b"}\n"


def decode_event(line: bytes) -> dict[str, Any]:
    try:
        doc = json.loads(line)
    except ValueError as exc:
        raise ProtocolError(f"undecodable event line: {exc}") from exc
    if not isinstance(doc, dict) or "type" not in doc:
        raise ProtocolError(f"event without a type: {doc!r}")
    return doc


def expand_query(query: MatrixQuery):
    """Expand a query into its (validated) spec, versions and cells.

    Shared by server and client so both sides agree on cell identity
    and ordering; raises ``ValueError`` for unknown workloads/versions
    exactly like :func:`repro.sweep.run_sweep`.
    """
    from repro.core.experiment import ExperimentConfig
    from repro.core.registry import get_workload
    from repro.sweep.cells import expand_cells

    spec = get_workload(query.workload)
    versions = query.versions if query.versions is not None else spec.versions
    for v in versions:
        if v not in spec.versions:
            raise ValueError(f"{query.workload} has no version {v!r}")
    config = ExperimentConfig(
        query.workload, tuple(versions), tuple(query.threads), dict(query.params)
    )
    cells = expand_cells(config, None, None, query.fidelity)
    return spec, config, cells
