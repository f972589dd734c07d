"""repro.perf — host-side telemetry, run ledger, and regression tracking.

Where :mod:`repro.obs` explains simulated time, this package explains
*real* time: lightweight span/counter instrumentation threaded through
the sweep executor, cache, codec and engine
(:mod:`repro.perf.spans`), an append-only JSONL run ledger with
environment fingerprints, the one run history
(:mod:`repro.perf.ledger`), committed-baseline regression detection
(:mod:`repro.perf.regress`), and a ranked host-cost attribution: the
obs bottleneck report over host time (:mod:`repro.perf.report`).
Driven by the ``repro perf`` CLI; set ``REPRO_PERF_OFF=1`` to disable
all recording (the disabled path is zero-overhead and bit-identical).
"""

from repro.perf.env import environment_fingerprint, git_sha
from repro.perf.ledger import DEFAULT_LEDGER_DIR, Ledger, ledger_dir, make_record
from repro.perf.regress import (
    BASELINE_DIR,
    MissingBaselineError,
    RegressionCheck,
    RegressionReport,
    baseline_path,
    compare,
    load_baseline,
    slugify,
    write_baseline,
)
from repro.perf.report import attribute_host
from repro.perf.spans import (
    PerfRecorder,
    Stopwatch,
    counter,
    current,
    observe,
    perf_enabled,
    recording,
    span,
)

__all__ = [
    "BASELINE_DIR",
    "DEFAULT_LEDGER_DIR",
    "Ledger",
    "MissingBaselineError",
    "PerfRecorder",
    "RegressionCheck",
    "RegressionReport",
    "Stopwatch",
    "attribute_host",
    "baseline_path",
    "compare",
    "counter",
    "current",
    "environment_fingerprint",
    "git_sha",
    "ledger_dir",
    "load_baseline",
    "make_record",
    "observe",
    "perf_enabled",
    "recording",
    "slugify",
    "span",
    "write_baseline",
]
