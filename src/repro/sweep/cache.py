"""Content-addressed on-disk cache for completed sweep cells.

Every completed cell of an experiment sweep is memoized under a key
that is a SHA-256 over *everything that determines the simulation's
output*:

- the workload name, version, thread count and workload parameters;
- the full machine configuration (topology, clocks, bandwidths, NUMA
  and SMT factors, placement);
- every cost-model constant;
- the execution context's seed, thread cap and event budget;
- whether the run was traced (traced and untraced entries differ in
  payload, so they address different entries);
- the fault-injection plan and recovery policy, when the sweep injects
  faults (fault-free cells hash exactly as before);
- the fidelity, when it is the tier-0 estimate (tier-2 simulations hash
  exactly as before tiers existed; estimates address their own entries);
- the code-relevant package version and the cache format version.

The context's part of that document (machine, costs, seed, budgets) is
built and encoded once per context (:func:`context_identity`), so a key
costs the encoding of its cell's own fields and one hash; the same
document's digest is the sweep service's context digest.

Because the simulator is deterministic, two runs with equal keys are
bit-identical — so replaying an entry is indistinguishable from
re-simulating it, and any change to any input (a cost constant, a
machine parameter, a package upgrade) silently invalidates exactly the
affected cells and nothing else.

Layout: entries are **sharded** by key prefix — entry ``<key>`` lives
at ``root/<key[:2]>/<key>.json`` — so a store holding millions of
cells (the sweep service's regime, :mod:`repro.serve`) never puts more
than ~1/256th of them in one directory, keeping every directory scan
and entry create O(small).  The shard directories are the whole store:
nothing else is written under the root, and the directory scan is the
only record of what the store holds.  Anything outside a shard
directory (a pre-sharding store's flat ``root/<key>.json``) is not an
entry, so it costs a miss and a re-simulation, never a wrong result.

Entry files: each is one short JSON header line, then the *body*, the
entry document as compact ASCII JSON on one line of its own
(:func:`encode_entry`)::

    {"entry":1,"format":1,"fidelity":2,"kind":"result","length":764040,"crc32":3196173010}
    {"format":1,"workload":"lud",...,"result":{...}}

The header starts with the fixed marker :data:`ENTRY_MARKER` (the
framing's version stamp) and carries the document's stamps (``format``,
``fidelity``, ``kind`` — ``result`` or ``error``), the body's byte
length and its ``zlib.crc32``.  :meth:`ResultCache.read` parses only
the header and checks the body's length, CRC and that it is one line,
so a hit costs a CRC over the bytes, never a JSON parse of the body,
and a flipped byte, a truncated file or a file of another layout is a
miss.  A pre-header entry (its file *is* a body) fails the marker check
and a first line longer than :data:`HEADER_CAP` fails the length check,
both before anything is parsed; either is re-run and overwritten.

Eviction is **true LRU**: :meth:`ResultCache.read` (and so
:meth:`~ResultCache.get`) refreshes an entry's mtime on every hit
(best-effort ``os.utime``), so "least recently modified" genuinely
means "least recently used" and a hot entry survives any number of
prunes.  An optional ``ttl_seconds`` expires entries that have not
been used within the window regardless of the entry bound.

Concurrency: entries are written atomically (write to a unique
temporary file in the entry's shard directory, then ``os.replace``),
so any number of executors — threads or processes — may share one
cache directory; readers only ever observe absent or complete entries,
and concurrent writers of the same key converge on identical content.
Unreadable, truncated or corrupt entries are misses and are overwritten.
A *crashed* writer can leave its ``.<key>.*.tmp`` staging file behind;
:meth:`prune` and :meth:`clear` garbage-collect staging files older
than :data:`TMP_GRACE_SECONDS` (young ones may belong to a live
in-flight writer and are left alone).

Host telemetry: when a :mod:`repro.perf` recording is active, every
probe and store reports its latency (``cache.probe_seconds`` /
``cache.store_seconds`` observations) and the store's own outcomes
(``cache.store`` / ``cache.evict`` / ``cache.tmp_gc`` counters); with
no recorder active the instrumentation is a single predicate per call.
Whether a probe was a hit is the caller's verdict (an entry the store
returns can still fail the caller's stamp check), so the local sweep
counts ``cache.hit`` / ``cache.miss`` itself, and the server
``serve.cache_hit``.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import pathlib
import threading
import time
import zlib
from dataclasses import asdict
from functools import lru_cache
from time import perf_counter
from types import MappingProxyType
from typing import TYPE_CHECKING, Any, Iterator, Mapping, Optional, Union

from repro.perf.spans import current as _perf_current
from repro.runtime.base import ExecContext

if TYPE_CHECKING:  # pragma: no cover
    from repro.sweep.cells import SweepCell

__all__ = [
    "DEFAULT_CACHE_DIR",
    "ENTRY_MARKER",
    "HEADER_CAP",
    "KEY_FORMAT",
    "ResultCache",
    "SHARD_WIDTH",
    "TMP_GRACE_SECONDS",
    "cache_key",
    "context_identity",
    "encode_entry",
    "entry_body",
    "entry_stamps",
]

#: Where `repro sweep` and the benchmark harness keep their entries.
DEFAULT_CACHE_DIR = pathlib.Path("benchmarks") / "out" / "cache"

#: Bump to invalidate every existing entry (cache payload layout change).
KEY_FORMAT = 1

#: The first bytes of every entry file: the head of its header line and
#: the version stamp of the entry layout.
ENTRY_MARKER = b'{"entry":1,'

#: Longest header line, newline included: a file whose first line is
#: longer is a miss, found without parsing it.
HEADER_CAP = 256

#: Hex chars of the key that name an entry's shard directory.
SHARD_WIDTH = 2

#: Staging files older than this are presumed orphaned by a crashed
#: writer and are garbage-collected by prune()/clear().
TMP_GRACE_SECONDS = 3600.0

_tmp_counter = itertools.count()


#: The canonical JSON of :func:`_key_document` and of the context
#: identity: sorted keys, no whitespace, ASCII.
_canonical = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


@lru_cache(maxsize=128)
def _identity(machine, costs, seed: int, max_events: int, thread_cap: int,
              kinds: tuple[type, ...]) -> tuple[Mapping[str, str], str]:
    """The identity document of one context, and its digest.

    Keyed on the context's frozen fields, so the ``asdict`` walk over the
    machine and the cost model and their JSON encoding run once per
    context, not once per cell.  ``kinds`` holds the type of every scalar
    field: equal fields of different types (``2`` and ``2.0``, ``1`` and
    ``True``) encode differently, so they must not share an entry.  Each
    field is kept as its canonical JSON, ready to splice into a key
    document.
    """
    fields = {
        "machine": _canonical(asdict(machine)),
        "costs": _canonical(asdict(costs)),
        "seed": _canonical(seed),
        "max_events": _canonical(max_events),
        "thread_cap": _canonical(thread_cap),
    }
    return MappingProxyType(fields), hashlib.sha256(_splice(fields).encode("utf-8")).hexdigest()


def context_identity(ctx: ExecContext) -> tuple[Mapping[str, str], str]:
    """Everything ``ctx`` contributes to cell identity (machine, costs,
    seed, budgets — *not* fidelity, which is per-cell), as canonical JSON
    per field, and the SHA-256 of that document (the sweep service's
    context digest).  Cached per context."""
    machine, costs = ctx.machine, ctx.costs
    scalars = (*vars(machine).values(), *vars(costs).values(),
               ctx.seed, ctx.max_events, ctx.thread_cap)
    return _identity(machine, costs, ctx.seed, ctx.max_events, ctx.thread_cap,
                     tuple(map(type, scalars)))


def _splice(fields: Mapping[str, str]) -> str:
    """The canonical JSON object of ``fields`` (name -> canonical JSON
    of its value): byte-identical to encoding the decoded document."""
    return "{" + ",".join(f'"{k}":{fields[k]}' for k in sorted(fields)) + "}"


def _key_document(cell: "SweepCell", ctx: ExecContext, trace: bool) -> dict[str, str]:
    """The canonical key inputs, each as its canonical JSON."""
    from repro import __version__

    doc = dict(context_identity(ctx)[0])
    doc.update(
        format=_canonical(KEY_FORMAT),
        package=_canonical(__version__),
        workload=_canonical(cell.workload),
        version=_canonical(cell.version),
        nthreads=_canonical(int(cell.nthreads)),
        params=_canonical({str(k): v for k, v in cell.params.items()}),
        trace=_canonical(bool(trace)),
    )
    # fault plan / recovery policy change the simulation output, so they
    # are key inputs — but only when present, so every pre-existing
    # fault-free entry keeps its address (no KEY_FORMAT bump needed).
    if getattr(cell, "faults", None):
        doc["faults"] = _canonical(cell.faults)
    if getattr(cell, "policy", None):
        doc["policy"] = _canonical(cell.policy)
    # the fidelity tier addresses separate entries (a tier-0 estimate
    # must never be served for a tier-2 request), but the reference tier
    # is omitted so every pre-tiers entry keeps its address.
    fidelity = getattr(cell, "fidelity", 2)
    if fidelity != 2:
        doc["fidelity"] = _canonical(int(fidelity))
    return doc


def cache_key(cell: "SweepCell", ctx: ExecContext, *, trace: bool = False) -> str:
    """Stable content address of one sweep cell under one context.

    The key is a SHA-256 hex digest of the canonical (sorted-keys,
    no-whitespace) JSON encoding of :func:`_key_document`, so it is
    independent of dict insertion order, of ``PYTHONHASHSEED``, and of
    the process that computes it.  The context's fields come encoded
    from :func:`context_identity`, so a key costs the cell's fields only.
    """
    blob = _splice(_key_document(cell, ctx, trace))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def entry_stamps(payload: dict[str, Any]) -> dict[str, Any]:
    """The stamps of an entry document, as its header carries them: its
    ``format``, its ``fidelity`` (2 when unstamped) and its ``kind``,
    ``error`` or ``result`` by the key it holds (``None`` for neither)."""
    kind = "error" if "error" in payload else "result" if "result" in payload else None
    return {"format": payload.get("format"), "fidelity": payload.get("fidelity", 2),
            "kind": kind}


def encode_entry(payload: dict[str, Any]) -> bytes:
    """An entry document as the bytes of its file: the header line, then
    the body, the document as compact JSON and one trailing newline.

    Being ASCII-escaped, the body holds no raw newline, so the sweep
    service can splice it into one NDJSON line unchanged.
    """
    body = json.dumps(payload, separators=(",", ":")).encode("ascii") + b"\n"
    header = dict(entry_stamps(payload), length=len(body), crc32=zlib.crc32(body))
    # the marker opens the header object: splice the rest of it in
    tail = json.dumps(header, separators=(",", ":")).encode("ascii")[1:]
    return b"".join((ENTRY_MARKER, tail, b"\n", body))


def entry_body(data: bytes) -> memoryview:
    """The body of entry bytes that :func:`encode_entry` just made, as a
    view: everything after the header line, unchecked."""
    return memoryview(data)[data.index(b"\n") + 1:]


def _split_entry(data: bytes) -> Optional[tuple[dict[str, Any], bytes]]:
    """Check an entry file's framing and split it into ``(header, body)``.

    ``None`` unless the file starts with :data:`ENTRY_MARKER`, its header
    line fits in :data:`HEADER_CAP` bytes and parses, and the body is
    one line of the header's length and CRC.  Only the header is parsed;
    being opened by the marker, it parses to a dict or not at all.
    """
    if not data.startswith(ENTRY_MARKER):
        return None
    end = data.find(b"\n", 0, HEADER_CAP)
    if end < 0:
        return None
    try:
        header = json.loads(data[:end])
    except ValueError:
        return None
    body = data[end + 1:]
    if (
        header.get("length") != len(body)
        or not body.endswith(b"\n")
        or body.find(b"\n") != len(body) - 1
        or header.get("crc32") != zlib.crc32(body)
    ):
        return None
    return header, body


def _is_shard_name(name: str) -> bool:
    if len(name) != SHARD_WIDTH:
        return False
    try:
        int(name, 16)
    except ValueError:
        return False
    return True


class ResultCache:
    """A sharded directory of content-addressed cell payloads.

    ``max_entries`` bounds the cache size and ``ttl_seconds`` expires
    entries unused for longer than the window.  Together they are the
    store's whole eviction policy: :meth:`prune` takes no overrides, and
    the sweep executor (after every sweep) and the sweep server (after
    every request that stored an entry) call it whenever either is set.
    It evicts the least-recently-*used* entries — :meth:`read` refreshes
    an entry's mtime on every hit, so recency of use, not of insertion,
    decides survival.
    """

    def __init__(
        self,
        root: Union[str, os.PathLike] = DEFAULT_CACHE_DIR,
        max_entries: Optional[int] = None,
        *,
        ttl_seconds: Optional[float] = None,
    ) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        if ttl_seconds is not None and ttl_seconds <= 0:
            raise ValueError("ttl_seconds must be > 0")
        self.root = pathlib.Path(root)
        self.max_entries = max_entries
        self.ttl_seconds = ttl_seconds

    # ------------------------------------------------------------------
    # layout
    # ------------------------------------------------------------------
    def path_for(self, key: str) -> pathlib.Path:
        """Location of ``key``'s entry file (inside its shard directory)."""
        return self.root / key[:SHARD_WIDTH] / f"{key}.json"

    # ------------------------------------------------------------------
    # entry IO
    # ------------------------------------------------------------------
    @staticmethod
    def _read(path: pathlib.Path) -> Optional[tuple[dict[str, Any], bytes]]:
        """Read one entry file as ``(header, body)``; missing, truncated,
        corrupt or of another layout → ``None``."""
        try:
            data = path.read_bytes()
        except OSError:
            return None
        return _split_entry(data)

    def read(self, key: str) -> Optional[tuple[dict[str, Any], bytes]]:
        """Return ``(header, body)`` of the entry stored under ``key``, or
        ``None``.

        The one read path: the file is read once and only its header line
        is parsed; the body's length, CRC and single line are checked, and
        it is returned as the bytes :func:`encode_entry` wrote, so a caller
        that forwards the document can send them as they are.  Missing,
        truncated, corrupt or headerless entries are all misses: a crashed
        writer can at worst leave a stale ``*.tmp`` file behind, never a
        half-visible entry.  A hit refreshes the entry's mtime
        (best-effort ``os.utime``), which is what makes :meth:`prune`'s
        least-recently-modified ordering true LRU rather than
        insertion-order FIFO.
        """
        rec = _perf_current()
        t0 = perf_counter() if rec is not None else 0.0
        path = self.path_for(key)
        entry = self._read(path)
        if entry is not None:
            try:
                os.utime(path)  # touch-on-hit: LRU recency, not FIFO age
            except OSError:
                pass
        if rec is not None:
            rec.observe("cache.probe_seconds", perf_counter() - t0)
        return entry

    def get(self, key: str) -> Optional[dict[str, Any]]:
        """Return the document stored under ``key``, or ``None``: a
        :meth:`read` and a parse of its body."""
        entry = self.read(key)
        return None if entry is None else json.loads(entry[1])

    def put(self, key: str, payload: Union[dict[str, Any], bytes]) -> pathlib.Path:
        """Atomically store ``payload`` under ``key`` (write-then-rename).

        ``payload`` is the entry document, or its :func:`encode_entry`
        bytes when the caller already holds them (the sweep service
        streams the body of the bytes it stores).  The temporary name is
        unique per (process, thread, call), so concurrent writers never
        collide on the staging file, and ``os.replace`` makes
        publication atomic on POSIX and Windows (same-directory rename:
        the staging file lives in the entry's shard).
        """
        rec = _perf_current()
        t0 = perf_counter() if rec is not None else 0.0
        data = payload if isinstance(payload, bytes) else encode_entry(payload)
        final = self.path_for(key)
        final.parent.mkdir(parents=True, exist_ok=True)
        tmp = final.with_name(
            f".{key}.{os.getpid()}.{threading.get_ident()}.{next(_tmp_counter)}.tmp"
        )
        try:
            tmp.write_bytes(data)
            os.replace(tmp, final)
        except BaseException:
            try:
                tmp.unlink()
            except OSError:
                pass
            raise
        if rec is not None:
            rec.observe("cache.store_seconds", perf_counter() - t0)
            rec.count("cache.store")
        return final

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def _shard_files(self) -> Iterator[pathlib.Path]:
        """Every file in every shard directory: entries and staging files."""
        try:
            shards = [d for d in self.root.iterdir() if _is_shard_name(d.name)]
        except OSError:
            return
        for shard in shards:
            try:
                files = list(shard.iterdir())
            except OSError:
                continue
            yield from files

    def _entry_paths(self) -> Iterator[pathlib.Path]:
        """Every entry file in the store (its stem is the entry's key)."""
        for p in self._shard_files():
            if p.suffix == ".json" and not p.name.startswith("."):
                yield p

    def keys(self) -> list[str]:
        """Keys of all complete entries currently on disk."""
        return sorted(p.stem for p in self._entry_paths())

    def refused(self, key: str) -> bool:
        """True iff an entry file exists under ``key`` but its framing
        does not check out (truncated, corrupt or headerless): a miss
        that is a rotting store rather than an absent entry.  Like a
        containment probe, it records no telemetry."""
        try:
            data = self.path_for(key).read_bytes()
        except OSError:
            return False
        return _split_entry(data) is None

    def __contains__(self, key: str) -> bool:
        """True iff ``key``'s entry exists *and* its framing checks out.

        Aligned with :meth:`read`'s miss semantics: a truncated, corrupt
        or headerless entry that ``read`` would treat as a miss also
        reports absent here, so ``key in cache`` never promises an entry
        that ``read`` then refuses to return.  Unlike ``read``, a
        containment probe records no telemetry and does not refresh
        recency — it is a question, not a use.
        """
        return self._read(self.path_for(key)) is not None

    def __len__(self) -> int:
        return len(self.keys())

    def _tmp_paths(self) -> Iterator[pathlib.Path]:
        """Every staging file in the store (they live in the shards)."""
        for p in self._shard_files():
            if p.name.startswith(".") and p.name.endswith(".tmp"):
                yield p

    def gc_stale_tmp(self) -> int:
        """Unlink staging files past the grace age; returns the count.

        A crashed writer's ``.<key>.*.tmp`` never becomes an entry and
        — being dot-prefixed — is invisible to :meth:`keys`, so without
        this pass it would leak forever.  Files younger than
        :data:`TMP_GRACE_SECONDS` are left alone: they may belong to a
        writer that is still alive between ``write_text`` and
        ``os.replace``.
        """
        cutoff = time.time() - TMP_GRACE_SECONDS
        removed = 0
        for path in self._tmp_paths():
            try:
                if path.stat().st_mtime <= cutoff:
                    path.unlink()
                    removed += 1
            except OSError:
                continue
        if removed:
            rec = _perf_current()
            if rec is not None:
                rec.count("cache.tmp_gc", removed)
        return removed

    def prune(self) -> int:
        """Evict least-recently-used entries beyond the bound or TTL.

        Returns the number of *entries* removed (0 when unbounded, no
        TTL, or already within bounds); stale staging files are
        garbage-collected on every call but not counted.  Because
        :meth:`read` touches entries on hit, mtime ordering here is true
        LRU: the entries evicted first are the ones nothing has asked
        for longest, across all shards.  Entries that vanish mid-prune
        (another executor pruning the same directory) are counted by
        whoever actually unlinked them.
        """
        self.gc_stale_tmp()
        bound, ttl = self.max_entries, self.ttl_seconds
        if bound is None and ttl is None:
            return 0
        entries = []
        for path in self._entry_paths():
            try:
                entries.append((path.stat().st_mtime_ns, str(path)))
            except OSError:
                continue
        entries.sort(reverse=True)  # most recently used first
        victims: list[tuple[int, str]] = []
        if ttl is not None:
            cutoff_ns = int((time.time() - ttl) * 1e9)
            keep = [e for e in entries if e[0] > cutoff_ns]
            victims.extend(e for e in entries if e[0] <= cutoff_ns)
            entries = keep
        if bound is not None:
            victims.extend(entries[bound:])
        evicted = 0
        for _mtime, path in victims:
            try:
                os.unlink(path)
            except OSError:
                continue
            evicted += 1
        if evicted:
            rec = _perf_current()
            if rec is not None:
                rec.count("cache.evict", evicted)
        return evicted

    def clear(self) -> int:
        """Remove every entry; returns how many were removed.

        Stale staging files are garbage-collected too (in-flight ones
        within the grace age are spared — their writer is about to
        publish into the now-empty store).
        """
        removed = 0
        for path in self._entry_paths():
            try:
                os.unlink(path)
                removed += 1
            except OSError:
                continue
        self.gc_stale_tmp()
        return removed
