"""Plan regression gate (``thalia perf``).

PRs 3–5 each shipped a headline speedup recorded in ad-hoc
``BENCH_*.json`` files that nothing re-checked, and nothing noticed when
a change made the planner pick a different plan.  This package records
the machine-independent facts of the twelve-query THALIA workload and
fails when they move:

* :func:`collect_snapshot` records, per (query × scale tier), the
  compiled plan's explain tree, its process-stable fingerprints, the
  result cardinality, per-operator estimated vs. actual rows and the
  plan/result-cache counters, into a versioned, schema-stamped JSON
  snapshot (:mod:`repro.perf.schema`);
* :func:`compare_snapshots` diffs two snapshots into a report of *plan
  regressions* (explain/fingerprint/cardinality changes) and *cost
  regressions* (a worst per-operator q-error that grew past the gate);
  a report that compared no query fails;
* the ``perf-gate`` CI job collects on the PR head and fails on either
  family vs the committed ``PERF_BASELINE.json``.

Nothing here times anything: ``perfbench/`` is the timing yardstick.

CLI front door: ``thalia perf collect`` / ``thalia perf report``.
"""

from .collect import collect_snapshot
from .report import compare_snapshots, render_report
from .schema import (
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
    "KIND_REPORT",
    "KIND_SNAPSHOT",
    "SCHEMA_NAME",
    "SCHEMA_VERSION",
    "SchemaError",
    "collect_snapshot",
    "compare_snapshots",
    "is_stamped",
    "load_document",
    "render_report",
    "stamp",
    "summarize_snapshot",
    "validate_document",
]
