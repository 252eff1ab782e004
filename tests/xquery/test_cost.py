"""The cost-based planner: costed plans answer exactly like rule-based
plans (and like index-disabled scans), while switching physical
strategies where the statistics say a scan is cheaper."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalogs import build_testbed, paper_universities
from repro.core.queries import QUERIES
from repro.xmlmodel import XmlDocument, element
from repro.xquery import compile_query
from repro.xquery.differential import outcomes
from repro.xquery.stats import collect_statistics


@pytest.fixture(scope="module")
def scale8():
    testbed = build_testbed(seed=2004, universities=paper_universities(),
                            scale=8)
    documents = testbed.documents
    statistics = collect_statistics(
        documents, fingerprint=testbed.content_fingerprint())
    return documents, statistics


class TestTwelveQueries:
    def test_costed_answers_match_rule_based(self, scale8):
        documents, statistics = scale8
        for query in QUERIES:
            result = outcomes(query.xquery, documents, statistics,
                              ("rule-based", "costed"))
            assert compile_query(query.xquery, statistics=statistics).costed
            assert result["costed"][:1] != ("raised",), f"Q{query.number}"
            assert result["costed"] == result["rule-based"], \
                f"Q{query.number}"

    def test_at_least_one_strategy_switch_at_scale_8(self, scale8):
        """The acceptance bar: at scale >= 8 the cost model must move at
        least one query off the rule-based physical strategy (the rules
        always probe the index first on child steps)."""
        documents, statistics = scale8
        switched = 0
        for query in QUERIES:
            plan = compile_query(query.xquery, statistics=statistics)
            if plan.decisions.get("scan-steps", 0) > 0:
                switched += 1
        assert switched >= 1

    def test_costed_plan_identity_differs_but_fingerprint_shared(
            self, scale8):
        """Result-cache entries stay shared (answers are interchangeable
        by construction); plan identity mixes the statistics in."""
        _documents, statistics = scale8
        source = QUERIES[0].xquery
        plain = compile_query(source)
        costed = compile_query(source, statistics=statistics)
        assert costed.fingerprint == plain.fingerprint
        assert costed.identity != plain.identity

    def test_predicate_reordering_happens_and_preserves_answers(
            self, scale8):
        """Q4 pushes two WHERE conjuncts; the cheap LIKE filter must run
        before the numeric range once selectivities are known."""
        documents, statistics = scale8
        reordered = 0
        for query in QUERIES:
            result = outcomes(query.xquery, documents, statistics,
                              ("rule-based", "costed"))
            assert result["costed"][:1] != ("raised",), f"Q{query.number}"
            assert result["costed"] == result["rule-based"], \
                f"Q{query.number}"
            plan = compile_query(query.xquery, statistics=statistics)
            reordered += plan.decisions.get("reordered-predicates", 0)
        assert reordered >= 1

    def test_alternatives_recorded_with_costs(self, scale8):
        _documents, statistics = scale8
        plan = compile_query(QUERIES[0].xquery, statistics=statistics)
        data = plan.explain_data()

        found = []

        def walk(entry):
            estimated = entry.get("estimated") or {}
            if "alternatives" in estimated:
                found.append(estimated)
            for child in entry.get("children", ()):
                walk(child)

        walk(data["root"])
        assert found, "no costed step recorded its alternatives"
        for estimated in found:
            strategies = {alt["strategy"]: alt["cost"]
                          for alt in estimated["alternatives"]}
            assert set(strategies) == {"index", "scan"}
            assert estimated["strategy"] in strategies
            assert estimated["est_cost"] \
                == pytest.approx(min(strategies.values()), abs=1e-3)

    def test_perturb_beats_statistics(self, scale8):
        """The perf gate's rewrite toggle must stay a pure rule-based
        plan even when statistics are on hand."""
        _documents, statistics = scale8
        plan = compile_query(QUERIES[0].xquery, statistics=statistics,
                             perturb=True)
        assert not plan.costed
        assert plan.perturbed


class TestScenarioPack:
    @pytest.fixture(scope="class")
    def pack(self):
        from repro.scenarios.suite import ScenarioSuite
        suite = ScenarioSuite.generate(11, 25)
        testbed = suite.build_testbed()
        documents = testbed.documents
        statistics = collect_statistics(documents)
        return suite, documents, statistics

    def test_costed_matches_rule_based_and_forced_scan(self, pack):
        suite, documents, statistics = pack
        for query in suite.queries:
            result = outcomes(query.xquery, documents, statistics,
                              ("rule-based", "perturbed", "costed"))
            assert compile_query(query.xquery,
                                 statistics=statistics).costed, query.case_id
            assert result["costed"][:1] != ("raised",), query.case_id
            assert result["costed"] == result["rule-based"] \
                == result["perturbed"], query.case_id


class TestReorderTotality:
    """A LIKE comparison is total only when its operands are: one over
    an arithmetic operand can raise, so it must not move ahead of the
    filter that shields it from the non-numeric row."""

    SOURCE = ("for $r in doc(\"D\")/D/row where $r/k = 'a' "
              "and $r/n + 1 = '%1%' return $r/v")

    @pytest.fixture(scope="class")
    def documents(self):
        rows = [element("row", element("k", "a"), element("n", str(i)),
                        element("v", f"v{i}")) for i in range(9)]
        rows.insert(4, element("row", element("k", "b"), element("n", "x"),
                               element("v", "vx")))
        return {"D": XmlDocument(element("D", *rows))}

    def test_like_over_raising_operand_keeps_its_place(self, documents):
        result = outcomes(self.SOURCE, documents,
                          collect_statistics(documents),
                          ("interpreter", "rule-based", "costed"))
        assert result == dict.fromkeys(result, ("<v>v0</v>",))


# --------------------------------------------------------------------------- #
# Property: every engine agrees on generated queries
# --------------------------------------------------------------------------- #

def _docs():
    root = element(
        "r",
        element("c", element("v", "x"), element("w", "5"),
                element("t", "alpha beta")),
        element("c", element("v", "y"), element("w", "2")),
        element("c", element("v", "x"), element("w", "7"),
                element("t", "gamma")),
        element("deep", element("c", element("v", "z"))),
    )
    return {"d": XmlDocument(root)}


DOCS = _docs()
STATISTICS = collect_statistics(DOCS)

_tags = st.sampled_from(["c", "v", "w", "t", "deep", "missing"])
_values = st.sampled_from(["'x'", "'y'", "'%x%'", "'alpha%'", "5", "2", "0"])
_cmp_ops = st.sampled_from(["=", "!=", "<", "<=", ">", ">="])
#: Conjunct operands: child paths, plus arithmetic that raises on
#: non-numeric text (``t``) — even under a LIKE comparison.
_operands = st.one_of(_tags.map(lambda tag: f"$i/{tag}"),
                      st.sampled_from(["$i/w + 1", "$i/t + 1"]))


@st.composite
def _queries(draw):
    steps = draw(st.lists(_tags, min_size=1, max_size=3))
    sep = draw(st.sampled_from(["/", "//"]))
    path = "doc('d')" + sep + "/".join(["r"] + steps)
    shape = draw(st.integers(min_value=0, max_value=2))
    if shape == 0:
        return path
    if shape == 1:
        tag = draw(_tags)
        op = draw(_cmp_ops)
        value = draw(_values)
        return f"{path}[{tag} {op} {value}]"
    conjuncts = [f"{draw(_operands)} {draw(_cmp_ops)} {draw(_values)}"
                 for _ in range(draw(st.integers(1, 3)))]
    return (f"for $i in doc('d')/r/c where {' and '.join(conjuncts)} "
            f"return $i/v")


class TestCostedEquivalence:
    @settings(max_examples=200, deadline=None)
    @given(_queries())
    def test_costed_matches_rule_based_and_forced_scan(self, source):
        result = outcomes(source, DOCS, STATISTICS)
        assert len(set(result.values())) == 1, result
