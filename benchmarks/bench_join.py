"""Hash-join speedup bench: costed join plans vs forced nested loops.

The headline experiment of the join engine: a two-source equi-join over
the scale-8 CMU catalog (``Lecturer = Lecturer`` self-join, 120 x 120
rows) compiled twice against the same statistics — once with the join
search on (the planner picks a hash stage) and once with
``join_search=False`` (the nested-loop reference plan).  Both sides are
checked byte-identical before any timing is trusted; the speedup gate
(default >= 5x, same-host comparison by construction) fails the run
loudly when the hash path stops paying for itself.

Two companion joins ride along ungated: the filtered switch query
(tiny inputs — measures that the planner's nested-loop choice costs
nothing) and a cross-school title join.

Usage::

    PYTHONPATH=src python benchmarks/bench_join.py [--quick] [--out F]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.catalogs import build_testbed, paper_universities
from repro.xquery.differential import render
from repro.xquery.plan import compile_query
from repro.xquery.stats import collect_statistics

SCALE = 8

#: (name, gated, xquery) — only the headline equi-join carries the gate.
JOINS = [
    ("cmu-self-lecturer", True,
     'for $a in doc("cmu.xml")/cmu/Course, '
     '$b in doc("cmu.xml")/cmu/Course '
     "where $a/Lecturer = $b/Lecturer return $b/CourseNum"),
    ("cmu-self-lecturer-filtered", False,
     'for $a in doc("cmu.xml")/cmu/Course, '
     '$b in doc("cmu.xml")/cmu/Course '
     "where $a/Day = 'F' and $b/Day = 'F' "
     "and $a/Lecturer = $b/Lecturer return $b/CourseNum"),
    ("brown-gatech-title", False,
     'for $a in doc("brown.xml")/brown/Course, '
     '$b in doc("gatech.xml")/gatech/Course '
     "where $a/Title = $b/Title return $a/CourseNum"),
]


def _time_ns(fn, repeat):
    best = None
    for _ in range(repeat):
        start = time.perf_counter_ns()
        fn()
        elapsed = time.perf_counter_ns() - start
        if best is None or elapsed < best:
            best = elapsed
    return best


def run_bench(quick=False, min_speedup=5.0):
    repeat = 5 if quick else 30
    warmup = 1 if quick else 3
    testbed = build_testbed(seed=2004, universities=paper_universities(),
                            scale=SCALE)
    documents = testbed.documents
    statistics = collect_statistics(
        documents, fingerprint=testbed.content_fingerprint())

    rows = []
    divergences = []
    gate_failures = []
    for name, gated, source in JOINS:
        joined = compile_query(source, statistics=statistics)
        looped = compile_query(source, statistics=statistics,
                               join_search=False)

        joined_result = render(joined.execute(documents))
        looped_result = render(looped.execute(documents))
        identical = joined_result == looped_result
        if not identical:
            divergences.append(name)

        for _ in range(warmup):
            joined.execute(documents)
            looped.execute(documents)
        joined_ns = _time_ns(lambda: joined.execute(documents), repeat)
        looped_ns = _time_ns(lambda: looped.execute(documents), repeat)
        speedup = round(looped_ns / joined_ns, 2)
        if gated and speedup < min_speedup:
            gate_failures.append(f"{name}: x{speedup} < x{min_speedup}")

        rows.append({
            "join": name,
            "gated": gated,
            "identical": identical,
            "items": len(joined_result),
            "nested_loop_ns": looped_ns,
            "hash_join_ns": joined_ns,
            "speedup": speedup,
            "decisions": {key: value
                          for key, value in joined.decisions.items()
                          if "join" in key or key == "hoisted-predicates"},
        })

    return {
        "bench": "bench_join",
        "mode": "quick" if quick else "full",
        "repeat": repeat,
        "scale": SCALE,
        "min_speedup": min_speedup,
        "joins": rows,
        "all_identical": not divergences,
        "divergent_joins": divergences,
        "gate_failures": gate_failures,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Time costed hash-join plans against forced "
                    "nested loops.")
    parser.add_argument("--quick", action="store_true",
                        help="fewer repetitions (CI smoke)")
    parser.add_argument("--min-speedup", type=float, default=5.0,
                        help="gate for the headline equi-join "
                             "(default 5.0)")
    parser.add_argument("--out", default=None, metavar="FILE",
                        help="write the JSON report here "
                             "(default: BENCH_join.json at the repo root)")
    args = parser.parse_args(argv)

    report = run_bench(quick=args.quick, min_speedup=args.min_speedup)

    out = Path(args.out) if args.out else \
        Path(__file__).resolve().parent.parent / "BENCH_join.json"
    from repro.perf.schema import KIND_BENCH, stamp
    out.write_text(json.dumps(stamp(KIND_BENCH, report), indent=2) + "\n",
                   encoding="utf-8")

    print(f"[bench_join] mode={report['mode']} repeat={report['repeat']} "
          f"scale={report['scale']}")
    for row in report["joins"]:
        flag = "ok " if row["identical"] else "DIVERGED"
        gate = "gated" if row["gated"] else "info "
        print(f"  {row['join']:<28} {flag} {gate}  "
              f"loop {row['nested_loop_ns'] / 1e6:8.3f} ms  "
              f"hash {row['hash_join_ns'] / 1e6:8.3f} ms  "
              f"x{row['speedup']}")
    print(f"[bench_join] -> {out}")

    if report["divergent_joins"]:
        print(f"[bench_join] FAIL: join plans diverged from the nested "
              f"loop on {report['divergent_joins']}", file=sys.stderr)
        return 1
    if report["gate_failures"]:
        print(f"[bench_join] FAIL: {report['gate_failures']}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
