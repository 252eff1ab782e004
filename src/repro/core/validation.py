"""Benchmark self-check: is this testbed build a valid THALIA instance?

A benchmark is only as good as its own invariants. This module verifies,
for any testbed build (any seed, any source subset), everything the paper
promises about THALIA itself:

1. every benchmark query's two sources are present, extractable and
   schema-valid;
2. every gold answer is non-empty and draws on *both* the reference and
   the challenge source (otherwise the heterogeneity would be untested);
3. every cleaned reference query runs natively and returns results on its
   reference source;
4. the full mediator reproduces every gold answer (the benchmark is
   *solvable*);
5. the heterogeneity classification is fully covered (each of the twelve
   cases has its exhibiting source pair).

``thalia`` exposes this as part of the ``stats`` command's exit status;
the test suite and CI-style checks call :func:`validate_benchmark`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..catalogs import Testbed
from ..catalogs.stats import coverage_report
from ..xquery import XQueryError, shared_plan_cache, shared_result_cache
from .answers import cached_gold_answer
from .queries import QUERIES


@dataclass
class ValidationIssue:
    """One problem found during self-check."""

    check: str
    query: int | None
    detail: str

    def __str__(self) -> str:
        scope = f"Q{self.query}" if self.query is not None else "testbed"
        return f"[{self.check}] {scope}: {self.detail}"


@dataclass
class ValidationResult:
    """Outcome of a full self-check run."""

    issues: list[ValidationIssue] = field(default_factory=list)
    checks_run: int = 0

    @property
    def ok(self) -> bool:
        return not self.issues

    def render(self) -> str:
        lines = [f"benchmark self-check: {self.checks_run} checks, "
                 f"{len(self.issues)} issue(s)"]
        lines.extend(f"  {issue}" for issue in self.issues)
        if self.ok:
            lines.append("  all invariants hold")
        return "\n".join(lines)


def validate_benchmark(testbed: Testbed) -> ValidationResult:
    """Run every self-check against *testbed*."""
    result = ValidationResult()

    def issue(check: str, query: int | None, detail: str) -> None:
        result.issues.append(ValidationIssue(check, query, detail))

    # 1. Sources present and schema-valid.
    for query in QUERIES:
        result.checks_run += 1
        for slug in query.sources:
            if slug not in testbed:
                issue("sources", query.number, f"source {slug!r} missing")
                continue
            bundle = testbed.source(slug)
            if not bundle.schema.is_valid(bundle.document):
                issue("sources", query.number,
                      f"{slug} fails its own schema")
            if bundle.stats.records == 0:
                issue("sources", query.number, f"{slug} extracted nothing")

    # 2. Gold answers: non-empty and spanning both sources.  Resolved
    # through the shared result cache, so a benchmark run followed by a
    # self-check (or server-side re-validation of an uploaded score)
    # computes each gold answer once per testbed content fingerprint.
    for query in QUERIES:
        result.checks_run += 1
        try:
            gold = cached_gold_answer(query, testbed)
        except KeyError:
            continue  # already reported as a missing source
        if not gold:
            issue("gold", query.number, "gold answer is empty")
            continue
        sources = {entry[0] for entry in gold}
        missing = set(query.sources) - sources
        if missing:
            issue("gold", query.number,
                  f"gold answer has no rows from {sorted(missing)}")

    # 3. Reference queries compile and run natively.  Going through the
    # shared plan cache means repeated self-checks (tests, `thalia stats`,
    # the server's startup probe) compile each benchmark query once, and
    # the shared result cache means they *execute* each one at most once
    # per testbed content fingerprint.
    documents = testbed.document_resolver()
    content_fp = testbed.content_fingerprint()
    plans = shared_plan_cache()
    results = shared_result_cache()
    for query in QUERIES:
        result.checks_run += 1
        if query.reference not in testbed:
            continue
        try:
            rows = results.execute(plans.get(query.xquery), documents,
                                   content_fp)
        except XQueryError as exc:
            issue("reference-query", query.number, f"raises {exc}")
            continue
        if not rows:
            issue("reference-query", query.number,
                  "returns nothing on its reference source")

    # 4. The benchmark is solvable by the full mediator.
    from ..systems import thalia_mediator  # local import: avoid cycle

    system = thalia_mediator()
    for query in QUERIES:
        result.checks_run += 1
        if any(slug not in testbed for slug in query.sources):
            continue
        attempt = system.answer(query, testbed)
        if attempt.answer != cached_gold_answer(query, testbed):
            issue("solvable", query.number,
                  "full mediator does not reproduce the gold answer")

    # 5. Heterogeneity coverage.
    result.checks_run += 1
    report = coverage_report(testbed)
    for number in range(1, 13):
        if not report.by_query.get(number):
            issue("coverage", number, "no source exhibits this case")

    return result
