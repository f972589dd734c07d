"""Append-only JSONL run ledger.

Every sweep, benchmark and CLI invocation appends one self-contained
JSON record to ``benchmarks/out/ledger/ledger.jsonl``: host wall/CPU
time, the recorder's span/counter detail, and an environment
fingerprint.  The ledger is the one record of run history: nothing
else keeps a copy of its records.  ``repro perf ledger``,
``repro perf report`` and ``repro perf compare`` all read it.

Concurrency: records are appended with a single ``os.write`` on a file
descriptor opened ``O_APPEND``, so concurrent writers — forked sweep
drivers, parallel pytest workers — interleave whole lines rather than
bytes (POSIX append semantics; each record is one ``\\n``-terminated
line).  Readers skip lines that fail to parse, so a torn write (which
would take a record far beyond the atomic-append window) can at worst
lose itself, never the ledger.

The directory is created lazily on first append and lives under the
gitignored ``benchmarks/out/``; ``REPRO_LEDGER_DIR`` overrides the
location (tests and CI point it at scratch space).
"""

from __future__ import annotations

import json
import os
import pathlib
import time
from typing import Any, Iterator, Mapping, Optional, Union

from repro.perf.env import environment_fingerprint
from repro.perf.spans import PerfRecorder

__all__ = ["DEFAULT_LEDGER_DIR", "LEDGER_DIR_ENV", "Ledger", "make_record"]

#: Where CLI commands and the benchmark harness append their records.
DEFAULT_LEDGER_DIR = pathlib.Path("benchmarks") / "out" / "ledger"

#: Environment override for the ledger directory.
LEDGER_DIR_ENV = "REPRO_LEDGER_DIR"

#: Record layout version.
RECORD_SCHEMA = 1


def ledger_dir() -> pathlib.Path:
    """The active ledger directory (env override, else the default)."""
    override = os.environ.get(LEDGER_DIR_ENV)
    return pathlib.Path(override) if override else DEFAULT_LEDGER_DIR


def make_record(
    kind: str,
    name: str,
    recorder: Union[None, PerfRecorder, Mapping[str, Any]] = None,
    *,
    extra: Optional[dict[str, Any]] = None,
    env: bool = True,
) -> dict[str, Any]:
    """Build one ledger record (not yet timestamped — append stamps it).

    ``kind`` classifies the invocation (``sweep``, ``bench``,
    ``faults``, ``validate``, ``record``); ``name`` identifies the
    workload-level subject (e.g. ``sweep:axpy``) that ``repro perf
    ledger --name`` and ``repro perf compare`` select by.
    ``recorder`` contributes the measured wall/CPU totals and
    span/counter detail — either a live
    :class:`~repro.perf.spans.PerfRecorder` or an already-taken
    snapshot dict (``SweepResult.perf``); ``extra`` carries
    call-specific context (jobs, fidelity, cell counts, cache state).
    """
    snap: Optional[Mapping[str, Any]]
    if isinstance(recorder, PerfRecorder):
        snap = recorder.snapshot()
    else:
        snap = recorder
    record: dict[str, Any] = {
        "schema": RECORD_SCHEMA,
        "kind": str(kind),
        "name": str(name),
        "wall_seconds": float(snap.get("wall_seconds", 0.0)) if snap else 0.0,
        "cpu_seconds": float(snap.get("cpu_seconds", 0.0)) if snap else 0.0,
    }
    if snap is not None:
        record["spans"] = dict(snap.get("spans") or {})
        record["counters"] = dict(snap.get("counters") or {})
        record["observations"] = dict(snap.get("observations") or {})
    if env:
        record["env"] = environment_fingerprint()
    if extra:
        record["extra"] = dict(extra)
    return record


class Ledger:
    """One append-only ``ledger.jsonl`` file in a (lazily created) directory."""

    def __init__(self, root: Union[None, str, os.PathLike] = None) -> None:
        self.root = pathlib.Path(root) if root is not None else ledger_dir()

    @property
    def path(self) -> pathlib.Path:
        return self.root / "ledger.jsonl"

    # ------------------------------------------------------------------
    # writing
    # ------------------------------------------------------------------
    def append(self, record: dict[str, Any]) -> dict[str, Any]:
        """Append one record (timestamping it) and return it.

        The encoded line is written with a single ``os.write`` on an
        ``O_APPEND`` descriptor, so concurrent appenders never
        interleave within a line.
        """
        record = dict(record)
        record.setdefault("schema", RECORD_SCHEMA)
        record["ts"] = time.time()
        line = json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
        self.root.mkdir(parents=True, exist_ok=True)
        fd = os.open(str(self.path), os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        try:
            os.write(fd, line.encode("utf-8"))
        finally:
            os.close(fd)
        return record

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def __iter__(self) -> Iterator[dict[str, Any]]:
        """Yield records oldest-first; unparsable lines are skipped."""
        try:
            text = self.path.read_text()
        except OSError:
            return
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                doc = json.loads(line)
            except ValueError:
                continue
            if isinstance(doc, dict):
                yield doc

    def records(
        self, *, kind: Optional[str] = None, name: Optional[str] = None
    ) -> list[dict[str, Any]]:
        """All (optionally filtered) records, oldest-first."""
        out = []
        for rec in self:
            if kind is not None and rec.get("kind") != kind:
                continue
            if name is not None and rec.get("name") != name:
                continue
            out.append(rec)
        return out

    def tail(
        self, n: int = 10, *, kind: Optional[str] = None, name: Optional[str] = None
    ) -> list[dict[str, Any]]:
        """The last ``n`` matching records, oldest-first."""
        recs = self.records(kind=kind, name=name)
        return recs[-n:] if n >= 0 else recs

    def last(
        self, *, kind: Optional[str] = None, name: Optional[str] = None
    ) -> Optional[dict[str, Any]]:
        """The most recent matching record, or ``None``."""
        recs = self.tail(1, kind=kind, name=name)
        return recs[0] if recs else None

    def __len__(self) -> int:
        return len(self.records())
