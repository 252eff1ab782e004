"""Plan-quality & performance regression framework (``thalia perf``).

PRs 3–5 each shipped a headline speedup recorded in ad-hoc
``BENCH_*.json`` files that nothing re-checked.  This package turns
those one-off reports into a durable regression instrument over the
twelve-query THALIA workload:

* :func:`collect_snapshot` measures, per (query × scale tier × worker
  count), the compiled plan's explain tree and process-stable
  fingerprints, wall/CPU timings with repeat-and-trim statistics
  (min/median/p95) and plan/result-cache counters, into a versioned,
  schema-stamped JSON snapshot (:mod:`repro.perf.schema`);
* :func:`compare_snapshots` diffs two snapshots into a regression
  report that separates *plan changes* (explain/fingerprint diffs —
  always enforced, machine-independent) from *timing changes*
  (threshold + noise-floor aware, enforced only between snapshots from
  the same host so CI variance cannot flap the gate);
* the ``perf-gate`` CI job collects on the PR head and fails on plan
  regressions or >25 % median slowdowns vs the committed
  ``PERF_BASELINE.json``.

CLI front door: ``thalia perf collect`` / ``thalia perf report``.
"""

from .collect import collect_snapshot, host_fingerprint
from .report import (
    DEFAULT_MIN_DELTA_NS,
    DEFAULT_THRESHOLD,
    compare_snapshots,
    render_report,
)
from .schema import (
    KIND_BENCH,
    KIND_REPORT,
    KIND_SNAPSHOT,
    SCHEMA_NAME,
    SCHEMA_VERSION,
    SchemaError,
    is_stamped,
    load_document,
    stamp,
    summarize_snapshot,
    validate_document,
)

__all__ = [
    "DEFAULT_MIN_DELTA_NS",
    "DEFAULT_THRESHOLD",
    "KIND_BENCH",
    "KIND_REPORT",
    "KIND_SNAPSHOT",
    "SCHEMA_NAME",
    "SCHEMA_VERSION",
    "SchemaError",
    "collect_snapshot",
    "compare_snapshots",
    "host_fingerprint",
    "is_stamped",
    "load_document",
    "render_report",
    "stamp",
    "summarize_snapshot",
    "validate_document",
]
