"""Differential harness: one query through every engine, one outcome.

The planner may change *how* a query runs, never *what* it returns nor
*whether* it raises.  This module owns the engine matrix that pins that
contract:

* ``interpreter`` — the tree-walking evaluator over the parsed AST;
* ``rule-based`` — the plan compiled without statistics;
* ``costed`` — the statistics-fed plan (index/scan choices, predicate
  reordering, join search);
* ``nested-loop`` — the costed plan with ``join_search=False``, the
  nested-loop reference for hash joins;
* ``perturbed`` — the rule-based plan with the rewrite toggle off.

An :func:`outcome` is the rendered result sequence, or
``("raised", ErrorTypeName)`` when the engine raised an
:class:`~repro.xquery.errors.XQueryError`; engines agree when their
outcomes are equal.  The unit and property tests call :func:`outcomes`
directly; :func:`main` drives the end-to-end corpus — the twelve
benchmark queries, handwritten multi-``doc()`` joins, the WHERE-fusion
group (at both scales) and a generated scenario pack with its
synthesized join pack — and checks:

* every outcome agrees across all five engines, and none raises;
* at least one of the twelve switches physical strategy by cost at
  scale >= 8 (a step runs as a tree scan instead of an index probe);
* at least one handwritten join runs a hash stage at scale >= 8, and
  the *switch query* runs a nested loop at scale 1 but a hash join at
  the large scale;
* EXPLAIN ANALYZE reports root rows equal to the result cardinality,
  and build and probe actuals on every hash-join node;
* the unfiltered self-join runs at least :data:`MIN_JOIN_SPEEDUP` times
  faster as a hash join than as a forced nested loop at the large scale
  (both timed on the same host in the same process);
* every text of the literal-varied corpus (:data:`LITERAL_TEMPLATES`,
  at both scales) agrees across the five engines, and the plan a
  :class:`~repro.xquery.plan_cache.PlanCache` binds from a template for
  it answers the same and has the ``explain_data()``, ``decisions`` and
  ``fingerprint`` of a fresh :func:`~repro.xquery.plan.compile_query`,
  rule-based and costed; every shape of the corpus makes a template, and
  each template serves at least one binding.

Run it with::

    PYTHONPATH=src python -m repro.xquery.differential
"""

from __future__ import annotations

import sys
import time
from typing import Callable, Iterable

from ..xmlmodel import XmlElement, serialize
from .context import DynamicContext
from .errors import XQueryError
from .evaluator import evaluate
from .parser import parse_query
from .plan import compile_query
from .plan_cache import PlanCache

#: Every engine of the matrix, interpreter first.
ENGINES = ("interpreter", "rule-based", "costed", "nested-loop",
           "perturbed")

#: The corpus :func:`main` drives: the large testbed scale tier, and the
#: size and seed of the generated scenario pack.
SCALE = 8
CASES = 25
PACK_SEED = 7

#: The hash join must beat the forced nested loop on
#: :data:`SPEEDUP_JOIN` at :data:`SCALE` by at least this factor.
MIN_JOIN_SPEEDUP = 5.0
SPEEDUP_JOIN = "cmu-self-lecturer"

#: Handwritten multi-source joins over the canonical testbed.  The first
#: one is the *switch query*: per-side ``Day`` filters keep both inputs
#: tiny at scale 1 (nested loop wins) while the unfiltered pair product
#: at scale 8 makes the hash table pay for itself.
JOIN_QUERIES = [
    ("cmu-self-lecturer-filtered",
     'for $a in doc("cmu.xml")/cmu/Course, '
     '$b in doc("cmu.xml")/cmu/Course '
     "where $a/Day = 'F' and $b/Day = 'F' "
     "and $a/Lecturer = $b/Lecturer return $b/CourseNum"),
    ("cmu-self-lecturer",
     'for $a in doc("cmu.xml")/cmu/Course, '
     '$b in doc("cmu.xml")/cmu/Course '
     "where $a/Lecturer = $b/Lecturer return $b/CourseNum"),
    ("brown-gatech-title",
     'for $a in doc("brown.xml")/brown/Course, '
     '$b in doc("gatech.xml")/gatech/Course '
     "where $a/Title = $b/Title return $a/CourseNum"),
    ("brown-gatech-umass-instructor",
     'for $a in doc("brown.xml")/brown/Course, '
     '$b in doc("gatech.xml")/gatech/Course, '
     '$c in doc("umass.xml")/umass/Course '
     "where $a/Instructor = $b/Instructor "
     "and $b/Instructor = $c/Instructor return $c/CourseNum"),
    ("gatech-umass-time-mixed",
     'for $a in doc("gatech.xml")/gatech/Course, '
     '$b in doc("umass.xml")/umass/Course '
     "where $a/Time = $b/Time and $a/Room != $b/Room "
     "return $b/CourseNum"),
]

#: WHERE-fusion corner cases over the canonical testbed: the loop
#: variable inside a nested step predicate, where ``.`` is the inner
#: item (the conjunct must stay in WHERE), and constant-folded operands
#: that must still become a LIKE comparison and an index-backed path.
FUSION_QUERIES = [
    ("nested-other-document",
     "for $b in doc('cmu.xml')/cmu/Course "
     "where exists(doc('brown.xml')/brown/Course[$b/Day = 'F']) "
     "return $b/CourseNum"),
    ("nested-own-path",
     "for $b in doc('cmu.xml')/cmu/Course "
     "where $b/Lecturer[$b/Day = 'F'] != '' return $b/CourseNum"),
    ("folded-like",
     "for $b in doc('cmu.xml')/cmu/Course "
     "where $b/Title = (if (1 = 1) then '%Data%' else 'x') "
     "return $b/CourseNum"),
    ("folded-doc",
     "for $b in doc(if (1 = 1) then 'cmu.xml' else 'x')/cmu/Course "
     "where $b/Day = 'F' return $b/CourseNum"),
]


#: Literal-varied templates: each text runs once per binding, the
#: binding's XQuery literals substituted for the ``{}`` fields.  The
#: bindings cover LIKE with ``%`` and ``_``, plain ``=`` and ``!=``,
#: quote-escaped literals, a numeric ``>`` beside a numeric-looking
#: string, a literal written first, a join, and bindings that flip one
#: literal between LIKE and plain (a different template each way).
LITERAL_TEMPLATES = [
    ("like",
     "for $b in doc('cmu.xml')/cmu/Course "
     "where $b/CourseTitle = {} return $b/CourseNum",
     [("'%Data%'",), ("'%Dat_ %'",), ("'_atabase%'",), ("'%'",),
      ("'%zzz%'",)]),
    ("plain",
     "for $b in doc('cmu.xml')/cmu/Course "
     "where $b/Day = {} and $b/Lecturer != {} return $b/CourseNum",
     [("'F'", "'Ailamaki'"), ("'TTh'", "'Nobody'"), ("'MWF'", "''"),
      ("'F'", "'F'")]),
    ("quoted",
     "for $b in doc('gatech.xml')/gatech/Course "
     "where $b/Title != {} and $b/Instructor = {} return $b/CourseNum",
     [("'it''s'", "'Mark'"), ("\"say \"\"hi\"\"\"", "'Mark'"),
      ("'O''Hara %'", "'Nobody''s'")]),
    ("numeric",
     "for $b in doc('cmu.xml')/cmu/Course "
     "where $b/Units > 9 and $b/Units != {} return $b/CourseNum",
     [("'12'",), ("'9'",), ("'1.5e1'",), ("'x'",)]),
    ("literal-first",
     "for $b in doc('cmu.xml')/cmu/Course "
     "where {} = $b/Day and {} < $b/CourseNum return $b/CourseNum",
     [("'F'", "'15-4'"), ("'TTh'", "'9'"), ("'%T%'", "''")]),
    ("join",
     'for $a in doc("cmu.xml")/cmu/Course, '
     '$b in doc("cmu.xml")/cmu/Course '
     "where $a/Lecturer = $b/Lecturer and $b/Day = {} "
     "return $b/CourseNum",
     [("'F'",), ("'TTh'",), ("'%'",), ("'none'",)]),
    ("like-flip",
     "for $b in doc('umd.xml')/umd/Course "
     "where $b/CourseName = {} return $b/CourseNum",
     [("'%Data%'",), ("'Data Structures;'",), ("'%Struct%'",),
      ("'Database Design'",)]),
]


def render(items: Iterable) -> tuple:
    """A result sequence as comparable text: elements serialized, atoms
    by ``repr`` (so ``'1'`` and ``1.0`` stay distinct)."""
    return tuple(serialize(item) if isinstance(item, XmlElement)
                 else repr(item) for item in items)


def outcome(run: Callable[[], Iterable]) -> tuple:
    """``render(run())``, or ``("raised", ErrorTypeName)`` when *run*
    raises an :class:`~repro.xquery.errors.XQueryError`."""
    try:
        return render(run())
    except XQueryError as exc:
        return ("raised", type(exc).__name__)


def _execute(engine: str, source: str, documents, statistics):
    if engine == "interpreter":
        return evaluate(parse_query(source),
                        DynamicContext(documents=documents))
    if engine == "rule-based":
        plan = compile_query(source)
    elif engine == "costed":
        plan = compile_query(source, statistics=statistics)
    elif engine == "nested-loop":
        plan = compile_query(source, statistics=statistics,
                             join_search=False)
    elif engine == "perturbed":
        plan = compile_query(source, perturb=True)
    else:
        raise ValueError(f"unknown engine {engine!r}")
    return plan.execute(documents)


def outcomes(source: str, documents, statistics=None,
             engines: Iterable[str] = ENGINES) -> dict[str, tuple]:
    """Engine name -> :func:`outcome` of *source* over *documents*.

    Compilation errors count as raised outcomes too.  Without
    *statistics* the costed engines plan exactly like the rule-based
    one.
    """
    return {engine: outcome(lambda engine=engine: _execute(
        engine, source, documents, statistics)) for engine in engines}


# --------------------------------------------------------------------------- #
# End-to-end corpus drive
# --------------------------------------------------------------------------- #

#: The engines compared against the analyzed costed run in :func:`main`.
_REFERENCES = tuple(engine for engine in ENGINES if engine != "costed")


def _check(label: str, ok: bool, detail: str = "") -> None:
    mark = "ok" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"  [{mark}] {label}{suffix}")
    if not ok:
        raise SystemExit(f"differential failed: {label}{suffix}")


def _hash_actuals_missing(entry: dict) -> list[str]:
    """What an analyzed hash-join node lacks of its build/probe
    estimates and actuals — the EXPLAIN ANALYZE contract."""
    missing = []
    if entry.get("kind") == "hash-join":
        estimated = entry.get("estimated", {})
        if "est_build_rows" not in estimated \
                or "est_probe_rows" not in estimated:
            missing.append("hash-join build/probe estimates")
        sides = {child.get("kind"): child
                 for child in entry.get("children", ())}
        missing.extend(f"hash-join {side} actuals"
                       for side in ("join-build", "join-probe")
                       if "actual" not in sides.get(side, {}))
    for child in entry.get("children", ()):
        missing.extend(_hash_actuals_missing(child))
    return missing


def _verify(source: str, documents, statistics) -> tuple[dict, list[str]]:
    """Run *source* through the whole matrix, the costed plan under
    EXPLAIN ANALYZE; returns (costed decisions, problems found)."""
    plan = compile_query(source, statistics=statistics)
    produced = outcome(lambda: plan.execute(documents, analyze=True))
    problems = [f"{engine} differs" for engine, other
                in outcomes(source, documents, statistics,
                            _REFERENCES).items() if other != produced]
    if produced[:1] == ("raised",):
        problems.append(f"raised {produced[1]}")
        return plan.decisions, problems
    data = plan.explain_data(analyze=True)
    actual = data["root"].get("actual")
    if actual is not None and actual["rows"] != len(produced):
        problems.append(f"analyzed root reported {actual['rows']} rows, "
                        f"execution produced {len(produced)}")
    problems.extend(_hash_actuals_missing(data["root"]))
    return plan.decisions, problems


def _verify_bindings(template: str, bindings: list[tuple[str, ...]],
                     documents, statistics) -> tuple[int, list[str]]:
    """Run every binding of *template* through the matrix and through a
    template-binding :class:`PlanCache` per planner (rule-based and
    costed); returns (costed template hits, problems found)."""
    problems: list[str] = []
    caches = {"rule-based": (PlanCache(), None),
              "costed": (PlanCache(), statistics)}
    for binding in bindings:
        source = template.format(*binding)
        label = ", ".join(binding)
        problems.extend(f"[{label}] {problem}" for problem
                        in _verify(source, documents, statistics)[1])
        reference = outcome(lambda: compile_query(source).execute(
            documents))
        for engine, (cache, stats) in caches.items():
            bound = cache.get(source, statistics=stats)
            fresh = compile_query(source, statistics=stats)
            if outcome(lambda: bound.execute(documents)) != reference:
                problems.append(f"[{label}] {engine} bound plan answers "
                                f"differently")
            if bound.explain_data() != fresh.explain_data() \
                    or bound.decisions != fresh.decisions \
                    or bound.fingerprint != fresh.fingerprint:
                problems.append(f"[{label}] {engine} bound plan differs "
                                f"from a fresh compile")
    for engine, (cache, _stats) in caches.items():
        if None in cache.templates.values():
            problems.append(f"{engine}: a shape made no template")
    return caches["costed"][0].templates.hits, problems


def _best_execute_ns(plan, documents, repeat: int = 5) -> int:
    """Best-of-*repeat* wall time of ``plan.execute`` after one warm-up."""
    plan.execute(documents)
    timings = []
    for _ in range(repeat):
        started = time.perf_counter_ns()
        plan.execute(documents)
        timings.append(time.perf_counter_ns() - started)
    return min(timings)


def main() -> int:
    from ..catalogs import build_testbed, paper_universities
    from ..core.queries import QUERIES
    from ..scenarios.suite import ScenarioSuite, synthesize_join_xquery
    from .stats import collect_statistics

    started = time.monotonic()
    universities = paper_universities()
    print(f"building scale-1 and scale-{SCALE} testbeds "
          f"({len(universities)} sources)")
    testbeds = {}
    for scale in sorted({1, SCALE}):
        testbed = build_testbed(seed=2004, universities=universities,
                                scale=scale)
        testbeds[scale] = (testbed.document_resolver(), collect_statistics(
            testbed.documents, fingerprint=testbed.content_fingerprint()))
    documents, statistics = testbeds[SCALE]
    print(f"statistics fingerprint {statistics.fingerprint[:12]} "
          f"over {len(statistics.documents)} documents")

    print(f"canonical twelve at scale {SCALE}, {len(ENGINES)} "
          f"engines:")
    switches = 0
    for query in QUERIES:
        decisions, problems = _verify(query.xquery, documents, statistics)
        switched = decisions.get("scan-steps", 0) > 0
        switches += switched
        _check(f"Q{query.number} outcomes agree", not problems,
               "; ".join(problems)
               or ("strategy switched" if switched else "no switch"))
    _check(f"strategy switches at scale {SCALE}", switches >= 1,
           f"{switches}/{len(QUERIES)} queries chose a different "
           f"physical step")

    print("handwritten multi-source joins:")
    switch_name, switch_source = JOIN_QUERIES[0]
    hash_joins = 0
    for name, source in JOIN_QUERIES:
        decisions, problems = _verify(source, documents, statistics)
        if name == switch_name:
            large = decisions
        hash_joins += decisions.get("hash-joins", 0)
        _check(f"{name} outcomes agree", not problems,
               "; ".join(problems)
               or f"groups={decisions.get('join-groups', 0)} "
                  f"hash={decisions.get('hash-joins', 0)} "
                  f"loop={decisions.get('loop-joins', 0)}")
    _check(f"hash stages chosen at scale {SCALE}", hash_joins >= 1,
           f"{hash_joins} hash stages across {len(JOIN_QUERIES)} joins")

    speedup_source = dict(JOIN_QUERIES)[SPEEDUP_JOIN]
    hashed = _best_execute_ns(
        compile_query(speedup_source, statistics=statistics), documents)
    looped = _best_execute_ns(
        compile_query(speedup_source, statistics=statistics,
                      join_search=False), documents)
    _check(f"{SPEEDUP_JOIN} hash join >= x{MIN_JOIN_SPEEDUP} over the "
           f"nested loop", looped >= MIN_JOIN_SPEEDUP * hashed,
           f"x{looped / hashed:.2f}: loop {looped / 1e6:.1f} ms, "
           f"hash {hashed / 1e6:.1f} ms")

    small_decisions, problems = _verify(switch_source, *testbeds[1])
    _check(f"{switch_name} outcomes agree at scale 1", not problems,
           "; ".join(problems))
    _check("strategy switches with scale",
           small_decisions.get("hash-joins", 0) == 0
           and small_decisions.get("loop-joins", 0) >= 1
           and large.get("hash-joins", 0) >= 1,
           f"scale 1 loop={small_decisions.get('loop-joins', 0)}/"
           f"hash={small_decisions.get('hash-joins', 0)}, "
           f"scale {SCALE} hash={large.get('hash-joins', 0)}")

    print(f"where-fusion group at scales {sorted(testbeds)}:")
    failures = [f"{name} at scale {scale}: {problem}"
                for scale in sorted(testbeds)
                for name, source in FUSION_QUERIES
                for problem in _verify(source, *testbeds[scale])[1]]
    _check("fusion outcomes agree", not failures,
           "; ".join(failures[:3])
           or f"{len(FUSION_QUERIES)} queries x {len(testbeds)} scales")

    print(f"literal-varied templates at scales {sorted(testbeds)}:")
    for name, template, bindings in LITERAL_TEMPLATES:
        for scale in sorted(testbeds):
            hits, problems = _verify_bindings(template, bindings,
                                              *testbeds[scale])
            _check(f"{name} bindings agree at scale {scale}",
                   not problems and hits >= 1,
                   "; ".join(problems[:3])
                   or f"{len(bindings)} bindings, {hits} template hits")

    print(f"generated scenario pack seed={PACK_SEED} "
          f"cases={CASES}:")
    suite = ScenarioSuite.generate(PACK_SEED, CASES)
    pack_testbed = suite.build_testbed()
    pack_documents = pack_testbed.document_resolver()
    pack_statistics = collect_statistics(pack_testbed.documents)
    specs = [query.spec for query in suite.queries]
    corpora = {
        "scenario": [(query.case_id, query.xquery)
                     for query in suite.queries],
        "join pack": [
            (f"join-{index}",
             synthesize_join_xquery(spec, specs[(index + 1) % len(specs)]))
            for index, spec in enumerate(specs)],
    }
    for corpus, cases in corpora.items():
        failures: list[str] = []
        switched = groups = 0
        for case_id, source in cases:
            decisions, problems = _verify(source, pack_documents,
                                          pack_statistics)
            switched += decisions.get("scan-steps", 0) > 0
            groups += decisions.get("join-groups", 0)
            failures.extend(f"{case_id}: {problem}" for problem in problems)
        _check(f"{corpus} outcomes agree", not failures,
               "; ".join(failures[:3])
               or f"{len(cases)} cases, {switched} with switches, "
                  f"{groups} join groups planned")

    print(f"differential passed in {time.monotonic() - started:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
