"""Sweep-as-a-service: a long-running query service over the sweep cache.

ROADMAP item 2.  The paper's conclusions are one point in a huge
runtime × schedule × grainsize × machine space; this package turns
:func:`repro.sweep.run_sweep` + the sharded content-addressed
:class:`~repro.sweep.cache.ResultCache` into a service that answers
"what-if" experiment matrices from a store that stays cheap at
millions of entries:

- :mod:`repro.serve.protocol` — the wire protocol: JSON matrix
  queries in, NDJSON cell-event streams out;
- :mod:`repro.serve.server`  — the asyncio HTTP front end:
  single-flight dedupe of identical in-flight cells across concurrent
  requests (keyed by ``cache_key``), process-pool fan-out for misses,
  write-through to the shared store, streaming results as cells land;
- :mod:`repro.serve.client`  — the client library;
  ``run_sweep(..., server=URL)`` and ``repro sweep --server`` route
  through it, and the assembled ``SweepResult`` is byte-identical to
  a locally executed sweep.

Stdlib only (``asyncio`` on the server, ``socket`` in the client, each
framing its own HTTP/1.1): no new dependencies.
"""

from repro.serve.client import SERVER_ENV, ServerError, SweepClient, run_sweep_remote
from repro.serve.protocol import PROTOCOL_VERSION, MatrixQuery, ProtocolError
from repro.serve.server import SweepServer

__all__ = [
    "PROTOCOL_VERSION",
    "SERVER_ENV",
    "MatrixQuery",
    "ProtocolError",
    "ServerError",
    "SweepClient",
    "SweepServer",
    "run_sweep_remote",
]
