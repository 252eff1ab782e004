"""Compiled plans: byte-identical to the interpreter, observable stats."""

import sys
import threading

import pytest

from repro.core.queries import QUERIES
from repro.xmlmodel import XmlDocument, element
from repro.xquery import Query, XQueryTypeError, compile_query, run_query
from repro.xquery.differential import outcomes, render
from repro.xquery.plan import IndexedPathOp, _resolver_for


def _both_ways(source, documents):
    """(interpreter outcome, rule-based plan outcome)."""
    result = outcomes(source, documents,
                      engines=("interpreter", "rule-based"))
    return result["interpreter"], result["rule-based"]


class TestBenchmarkEquivalence:
    """The tentpole contract: all 12 queries, byte-identical results."""

    @pytest.mark.parametrize("query", QUERIES,
                             ids=[f"q{q.number:02d}" for q in QUERIES])
    def test_plan_matches_interpreter(self, query, paper_testbed):
        interp, planned = _both_ways(query.xquery, paper_testbed.documents)
        assert planned == interp

    @pytest.mark.parametrize("query", QUERIES,
                             ids=[f"q{q.number:02d}" for q in QUERIES])
    def test_plan_is_stable_across_runs(self, query, paper_testbed):
        plan = compile_query(query.xquery)
        first = render(plan.execute(paper_testbed.documents))
        second = render(plan.execute(paper_testbed.documents))
        assert first == second


class TestRewrites:
    def test_where_fuses_into_predicate(self):
        plan = compile_query(
            "for $c in doc('d')/r/c where $c/v = 'x' return $c")
        assert plan.rewrites["where-to-predicate"] == 1
        explained = plan.explain()
        assert "pushed from where" in explained
        # The WHERE clause itself is gone from the plan.
        assert not any(line.strip() == "where"
                       for line in explained.splitlines())

    def test_conjunction_fusion_is_all_or_nothing(self):
        fused = compile_query(
            "for $c in doc('d')/r/c "
            "where $c/v = 'x' and $c/w > 2 return $c")
        assert fused.rewrites["where-to-predicate"] == 2
        # position() is focus-dependent: nothing may move, not even the
        # fusable first conjunct.
        kept = compile_query(
            "for $c in doc('d')/r/c "
            "where $c/v = 'x' and position() < 9 return $c")
        assert kept.rewrites["where-to-predicate"] == 0

    def test_numeric_conjunct_is_not_pushed(self):
        """A bare numeric WHERE would flip to position-filter semantics
        as a predicate, so it must stay a WHERE."""
        plan = compile_query(
            "for $c in doc('d')/r/c where $c/v return $c")
        assert plan.rewrites["where-to-predicate"] == 0

    def test_constant_folding(self):
        plan = compile_query("if (1 < 2) then 'a' else 'b'")
        assert plan.rewrites["constant-fold"] >= 1
        assert plan.execute({}) == ["a"]

    def test_folding_keeps_runtime_errors(self):
        plan = compile_query("'abc' < 5")
        assert plan.rewrites["constant-fold"] == 0
        with pytest.raises(XQueryTypeError):
            plan.execute({})

    def test_doc_rooted_path_is_index_backed(self):
        plan = compile_query("doc('d')/r/c")
        assert plan.rewrites["index-paths"] == 1
        assert isinstance(plan.root, IndexedPathOp)

    def test_rebound_doc_disables_index_paths(self):
        from repro.xquery.functions import builtin_registry
        registry = builtin_registry()
        registry.register("doc", lambda ctx, args: [], arity=1)
        plan = compile_query("doc('d')/r/c", functions=registry)
        assert plan.rewrites["index-paths"] == 0


_CMU = "for $b in doc('cmu.xml')/cmu/Course "
_TWO_FORS = ("for $a in doc('cmu.xml')/cmu/Course, "
             "$b in doc('brown.xml')/brown/Course ")


class TestFoldAndFuseCounts:
    """Folding and fusion counts (and the shapes folding feeds) pinned
    per query; none of the twelve explain goldens folds anything."""

    @pytest.mark.parametrize("source, folds, fused, explained", [
        (_CMU + "where $b/Title = (if (1 = 1) then '%Data%' else 'x') "
         "return $b/CourseNum", 2, 1, "[like '%Data%']"),
        ("for $b in doc(if (1 = 1) then 'cmu.xml' else 'x')/cmu/Course "
         "where $b/Day = 'F' return $b/CourseNum", 2, 1,
         'index-path doc "cmu.xml"'),
        (_CMU + "where 1 = 2 and $b/Day = 'F' return $b/CourseNum",
         2, 1, None),
        (_CMU + "where 1 = 1 and $b/Day = 'F' return $b/CourseNum",
         1, 2, None),
        (_CMU + "where $b/Day[. = 'F'] = 'F' return $b/CourseNum",
         0, 0, None),
        (_CMU + "where contains($b/Title, 'Data') return $b/CourseNum",
         0, 1, None),
        (_CMU + "where position() = 1 return $b/CourseNum", 0, 0, None),
        (_TWO_FORS + "where $b/Day = 'F' return $b/CourseNum", 0, 1, None),
        (_TWO_FORS + "where $a/Day = $b/Day return $b/CourseNum",
         0, 0, None),
    ], ids=["folded-like", "folded-doc", "false-and", "true-and",
            "dot-in-predicate", "boolean-builtin", "position",
            "inner-for-only", "cross-for"])
    def test_counts(self, source, folds, fused, explained):
        plan = compile_query(source)
        assert plan.rewrites["constant-fold"] == folds
        assert plan.rewrites["where-to-predicate"] == fused
        if explained is not None:
            assert explained in plan.explain()
        if "doc(if" in source:
            assert plan.rewrites["index-paths"] == 1


class TestFusionAcrossNestedPredicates:
    """In a nested step predicate ``.`` is that step's item, so a WHERE
    conjunct with the loop variable inside one must stay in WHERE."""

    @pytest.fixture(scope="class")
    def statistics(self, paper_testbed):
        from repro.xquery.stats import collect_statistics
        return collect_statistics(paper_testbed.documents)

    @pytest.mark.parametrize("source", [
        _CMU + "where exists(doc('brown.xml')/brown/Course"
               "[$b/Day = 'F']) return $b/CourseNum",
        _CMU + "where $b/Lecturer[$b/Day = 'F'] != '' "
               "return $b/CourseNum",
    ], ids=["other-document", "own-path"])
    def test_engines_agree_on_testbed(self, source, paper_testbed,
                                      statistics):
        result = outcomes(source, paper_testbed.documents, statistics)
        assert result["interpreter"] != ()
        assert len(set(result.values())) == 1, result

    def test_engines_agree_on_small_document(self):
        docs = {"d": XmlDocument(element(
            "r", element("c", element("v", "x"), element("w", "5")),
            element("c", element("v", "y"), element("w", "2"))))}
        result = outcomes("for $i in doc('d')/r/c "
                          "where $i/w[$i/v = 'x'] = '5' return $i/w", docs)
        assert result["interpreter"] == ("<w>5</w>",)
        assert len(set(result.values())) == 1, result


class TestEquivalenceCorners:
    """Shapes where a sloppy planner would diverge from the evaluator."""

    @pytest.fixture()
    def docs(self):
        root = element(
            "r",
            element("c", element("v", "x"), element("w", "5")),
            element("c", element("v", "y"), element("w", "2")),
            element("c", element("v", "x x"), element("w", "not-a-number")),
        )
        return {"d": XmlDocument(root)}

    @pytest.mark.parametrize("source", [
        "doc('d')/r/c[2]",                          # position predicate
        "doc('d')/r/c[position() > 1]/v",
        "doc('d')/r/c[last()]",
        "doc('d')//v",                              # descendant from doc
        "doc('d')/r/c/*",                           # wildcard
        "doc('d')//missing",
        "for $c in doc('d')/r/c where $c/v = 'x' return $c/w",
        "for $c in doc('d')/r/c where $c/v = '%x%' "
        "return element hit {$c/v}",
        "for $c in doc('d')/r/c where $c/w > 3 return $c",   # raises on row 3
        "for $c in doc('d')/r/c order by $c/v descending return $c/v",
        "some $c in doc('d')/r/c satisfies $c/v = 'y'",
        "count(doc('d')/r/c)",
        "doc('d')/r/c[v = 'x']",                    # hand-written predicate
        "doc('missing')/r/c",                       # unknown document
    ])
    def test_corner_shapes_agree(self, source, docs):
        interp, planned = _both_ways(source, docs)
        assert planned == interp

    def test_duplicate_elimination_matches(self, docs):
        interp, planned = _both_ways("doc('d')//c//v", docs)
        assert planned == interp


class TestResolverCache:
    def test_concurrent_evictions_never_raise(self):
        """Server threads execute plans concurrently, each request with a
        fresh document mapping, so every call may evict the oldest cached
        resolver; racing evictions must neither pop the same key twice
        nor iterate the cache while another thread resizes it."""
        document = XmlDocument(element("r"))
        errors = []

        def hammer():
            try:
                for _ in range(20_000):
                    _resolver_for({"d": document})
            except Exception as exc:  # noqa: BLE001 - collected below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=hammer) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []


class TestPlanStats:
    def test_stats_populated_after_execute(self, paper_testbed):
        plan = compile_query(QUERIES[0].xquery)
        plan.execute(paper_testbed.documents)
        stats = plan.last_stats
        assert stats is not None
        assert stats.parse_ns > 0
        assert stats.compile_ns > 0
        assert stats.exec_ns > 0
        assert stats.nodes_visited > 0
        assert stats.index_lookups > 0
        assert set(stats.to_dict()) == {"parse_ns", "compile_ns", "exec_ns",
                                        "nodes_visited", "index_lookups"}

    def test_cumulative_snapshot(self, paper_testbed):
        plan = compile_query(QUERIES[0].xquery)
        for _ in range(3):
            plan.execute(paper_testbed.documents)
        snapshot = plan.stats_snapshot()
        assert snapshot["runs"] == 3
        assert snapshot["total_exec_ns"] >= snapshot["avg_exec_ns"] * 3 - 3
        assert snapshot["index_lookups"] > 0

    def test_index_lookups_zero_without_doc_paths(self):
        plan = compile_query("for $x in (1, 2, 3) return $x")
        assert plan.execute({}) == [1.0, 2.0, 3.0]
        assert plan.last_stats.index_lookups == 0


class TestFacade:
    def test_module_level_compile(self):
        from repro import xquery
        plan = xquery.compile("1 < 2")
        assert plan.execute({}) == [True]

    def test_query_wraps_plans(self, paper_testbed):
        query = Query(QUERIES[0].xquery)
        assert render(query.run(paper_testbed.documents)) == \
            render(run_query(QUERIES[0].xquery, paper_testbed.documents))

    def test_query_syntax_error_carries_location(self):
        from repro.xquery import XQuerySyntaxError
        with pytest.raises(XQuerySyntaxError) as info:
            Query("for $x in (1,\n  2 return $x")
        err = info.value
        assert err.line == 2
        assert err.column is not None
        assert err.context() is not None
        assert "^" in err.context()

    def test_unknown_attribute_still_raises(self):
        import repro.xquery as xq
        with pytest.raises(AttributeError):
            xq.definitely_not_a_thing
