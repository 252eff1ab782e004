"""Compiled-plan speedup bench: warm ``Plan.execute`` vs parse+evaluate.

For each of the twelve benchmark queries this script measures

* **baseline** — the pre-plan hot path: ``parse_query`` + ``evaluate``
  on every call, exactly what ``run_query`` did before compilation;
* **planned** — a warm :class:`~repro.xquery.plan.Plan` from the shared
  :class:`~repro.xquery.plan_cache.PlanCache`, executed repeatedly.

Both sides are checked byte-identical (serialized item lists) before any
timing is trusted; divergence exits non-zero so CI fails loudly.  The
headline number is the median per-query speedup, written to
``BENCH_query.json`` alongside per-query timings and plan stats.

Usage::

    PYTHONPATH=src python benchmarks/bench_query.py [--quick] [--out F]

``--quick`` trims repetitions for CI smoke runs; the acceptance run
(default repetitions) is what BENCH_query.json in the repo records.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

from repro.catalogs import build_testbed, paper_universities
from repro.core import QUERIES
from repro.xquery import shared_plan_cache
from repro.xquery.context import DynamicContext
from repro.xquery.differential import outcome
from repro.xquery.evaluator import evaluate
from repro.xquery.parser import parse_query


def _baseline_once(source, documents):
    """One pre-plan query call: parse, then tree-walk the AST."""
    return outcome(lambda: evaluate(parse_query(source),
                                    DynamicContext(documents=documents)))


def _planned_once(plan, documents):
    return outcome(lambda: plan.execute(documents))


def _time_ns(fn, repeat):
    """Best-of-``repeat`` wall time for one call of ``fn``."""
    best = None
    for _ in range(repeat):
        start = time.perf_counter_ns()
        fn()
        elapsed = time.perf_counter_ns() - start
        if best is None or elapsed < best:
            best = elapsed
    return best


def run_bench(quick=False):
    repeat = 5 if quick else 30
    warmup = 1 if quick else 3
    testbed = build_testbed(universities=paper_universities())
    documents = testbed.documents
    plans = shared_plan_cache()

    rows = []
    divergences = []
    for query in QUERIES:
        source = query.xquery
        plan = plans.get(source)

        baseline_result = _baseline_once(source, documents)
        planned_result = _planned_once(plan, documents)
        identical = planned_result == baseline_result
        if not identical:
            divergences.append(query.number)

        for _ in range(warmup):
            _baseline_once(source, documents)
            _planned_once(plan, documents)

        baseline_ns = _time_ns(lambda: _baseline_once(source, documents),
                               repeat)
        planned_ns = _time_ns(lambda: _planned_once(plan, documents),
                              repeat)

        rows.append({
            "query": f"Q{query.number}",
            "identical": identical,
            "items": len(planned_result),
            "baseline_ns": baseline_ns,
            "planned_ns": planned_ns,
            "speedup": round(baseline_ns / planned_ns, 2),
            "rewrites": dict(plan.rewrites),
            "plan": plan.stats_snapshot(),
        })

    speedups = [row["speedup"] for row in rows]
    return {
        "bench": "bench_query",
        "mode": "quick" if quick else "full",
        "repeat": repeat,
        "queries": rows,
        "median_speedup": round(statistics.median(speedups), 2),
        "min_speedup": round(min(speedups), 2),
        "max_speedup": round(max(speedups), 2),
        "all_identical": not divergences,
        "divergent_queries": divergences,
        "plan_cache": plans.stats(),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Time compiled plans against the per-call interpreter.")
    parser.add_argument("--quick", action="store_true",
                        help="fewer repetitions (CI smoke)")
    parser.add_argument("--out", default=None, metavar="FILE",
                        help="write the JSON report here "
                             "(default: BENCH_query.json at the repo root)")
    args = parser.parse_args(argv)

    report = run_bench(quick=args.quick)

    out = Path(args.out) if args.out else \
        Path(__file__).resolve().parent.parent / "BENCH_query.json"
    # Re-emit through the perf schema: BENCH_query.json is a point on
    # the repo's performance trajectory, so it carries the same stamped
    # envelope the `thalia perf` tooling validates and reads.
    from repro.perf.schema import KIND_BENCH, stamp
    out.write_text(json.dumps(stamp(KIND_BENCH, report), indent=2) + "\n",
                   encoding="utf-8")

    print(f"[bench_query] mode={report['mode']} repeat={report['repeat']}")
    for row in report["queries"]:
        flag = "ok " if row["identical"] else "DIVERGED"
        print(f"  {row['query']:>4}  {flag}  "
              f"baseline {row['baseline_ns'] / 1e6:8.3f} ms  "
              f"planned {row['planned_ns'] / 1e6:8.3f} ms  "
              f"x{row['speedup']}")
    print(f"[bench_query] median speedup x{report['median_speedup']} "
          f"(min x{report['min_speedup']}, max x{report['max_speedup']}) "
          f"-> {out}")

    if report["divergent_queries"]:
        print(f"[bench_query] FAIL: plans diverged from the interpreter "
              f"on {report['divergent_queries']}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
