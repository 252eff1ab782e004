"""Join execution engine: hash/loop stages vs nested loops, byte for byte.

Every test drives the same source through the five engines of
:mod:`repro.xquery.differential` — the tree-walking interpreter, the
rule-based plan, the costed plan (join search on), the costed plan with
``join_search=False`` (the forced nested-loop reference) and the
perturbed plan — and requires identical renderings *including order*
and identical raised error types.  The join engine may change how
tuples are produced, never what comes back.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.xmlmodel import XmlDocument, element
from repro.xquery import compile_query
from repro.xquery.context import DynamicContext
from repro.xquery.differential import outcomes
from repro.xquery.errors import XQueryTypeError
from repro.xquery.plan import (
    ComparisonOp,
    JoinGroupOp,
    LiteralOp,
    SequenceOp,
    VarRefOp,
    _ExecState,
    _JoinStage,
)
from repro.xquery.stats import collect_statistics


def _row(k, v=None, n=None):
    children = [element("k", k)]
    if v is not None:
        children.append(element("v", v))
    if n is not None:
        children.append(element("n", n))
    return element("row", *children)


def _docs():
    left = element(
        "L",
        _row("a", "l0", "1"), _row("b", "l1", "2"), _row("a", "l2", "x"),
        _row("c", "l3", "3"), _row("b", "l4", "4"))
    right = element(
        "R",
        _row("b", "r0", "2"), _row("a", "r1", "5"), _row("a", "r2", "y"),
        _row("d", "r3", "1"), _row("c"))
    third = element("T", _row("a", "t0", "1"), _row("b", "t1", "2"))
    return {"L": XmlDocument(left), "R": XmlDocument(right),
            "T": XmlDocument(third)}


DOCS = _docs()
STATS = collect_statistics(DOCS)


def _big_docs(rows=30):
    """Inputs large enough that the cost model picks hash stages."""
    keys = ["a", "b", "c", "d", "e", "f"]
    left = element("L", *[_row(keys[i % 6], f"l{i}", str(i))
                          for i in range(rows)])
    right = element("R", *[_row(keys[(i * 5) % 6], f"r{i}", str(i))
                           for i in range(rows)])
    return {"L": XmlDocument(left), "R": XmlDocument(right)}


BIG_DOCS = _big_docs()
BIG_STATS = collect_statistics(BIG_DOCS)


def _assert_agree(source, documents=DOCS, statistics=STATS):
    result = outcomes(source, documents, statistics)
    reference = result["interpreter"]
    for name, outcome in result.items():
        assert outcome == reference, (name, source)
    return reference


def _find(entry, kind):
    if entry.get("kind") == kind:
        yield entry
    for child in entry.get("children", ()):
        yield from _find(child, kind)


class TestJoinParity:
    """Byte-identical results, including duplicate keys and order."""

    def test_two_source_equi_join_preserves_order(self):
        source = ("for $a in doc('L')//row, $b in doc('R')//row "
                  "where $a/k = $b/k return $b/v")
        result = _assert_agree(source)
        # Duplicate keys on both sides: the nested loop emits the full
        # cross product of matches in outer-major order.
        assert len(result) > 4
        plan = compile_query(source, statistics=STATS)
        assert plan.decisions["join-groups"] == 1
        assert plan.decisions["hoisted-predicates"] == 1

    def test_hash_stage_at_scale(self):
        source = ("for $a in doc('L')//row, $b in doc('R')//row "
                  "where $a/k = $b/k return $b/v")
        _assert_agree(source, BIG_DOCS, BIG_STATS)
        plan = compile_query(source, statistics=BIG_STATS)
        assert plan.decisions["hash-joins"] == 1
        assert plan.decisions["loop-joins"] == 0

    def test_self_join(self):
        _assert_agree("for $a in doc('L')//row, $b in doc('L')//row "
                      "where $a/k = $b/k and $a/v != $b/v return $b/v")

    def test_three_source_join(self):
        _assert_agree(
            "for $a in doc('L')//row, $b in doc('R')//row, "
            "$c in doc('T')//row where $a/k = $b/k and $b/k = $c/k "
            "return $c/v")

    def test_single_variable_filters_hoisted(self):
        source = ("for $a in doc('L')//row, $b in doc('R')//row "
                  "where $a/k = 'a' and $a/k = $b/k and $b/v = '%r%' "
                  "return $b/v")
        _assert_agree(source)
        plan = compile_query(source, statistics=STATS)
        assert plan.decisions["hoisted-predicates"] == 3

    def test_empty_match_set(self):
        assert _assert_agree(
            "for $a in doc('L')//row, $b in doc('R')//row "
            "where $a/k = $b/k and $a/v = 'nope' return $b/v") == ()

    def test_empty_source_short_circuits(self):
        assert _assert_agree(
            "for $a in doc('L')//missing, $b in doc('R')//row "
            "where $a/k = $b/k return $b/v") == ()

    def test_non_equi_cross_predicate(self):
        _assert_agree("for $a in doc('L')//row, $b in doc('R')//row "
                      "where $a/k = $b/k and $a/v != $b/v return $b/v")

    def test_order_by_over_join(self):
        _assert_agree("for $a in doc('L')//row, $b in doc('R')//row "
                      "where $a/k = $b/k order by $b/v descending "
                      "return $b/v")

    def test_dependent_tail_clause(self):
        _assert_agree("for $a in doc('L')//row, $b in doc('R')//row, "
                      "$k in $a/k where $a/k = $b/k return $k")

    def test_residual_raising_conjunct_error_equivalence(self):
        # $a/n < 3 forces numeric coercion and some n values are not
        # numbers: all five engines must raise the same error type.
        outcome = _assert_agree(
            "for $a in doc('L')//row, $b in doc('R')//row "
            "where $a/k = $b/k and $a/n < 3 return $b/v")
        assert outcome == ("raised", XQueryTypeError.__name__)

    def test_raising_conjunct_blocks_hoisting_of_later_ones(self):
        source = ("for $a in doc('L')//row, $b in doc('R')//row "
                  "where $a/n < 3 and $a/k = $b/k return $b/v")
        _assert_agree(source)
        plan = compile_query(source, statistics=STATS)
        # The raising conjunct comes first: nothing may be hoisted
        # across it, so no join group is planned at all.
        assert plan.decisions["join-groups"] == 0

    def test_multi_valued_keys(self):
        doubled = element(
            "L", *[element("row", element("k", "a"), element("k", f"x{i}"),
                           element("v", f"l{i}")) for i in range(25)])
        single = element(
            "R", *[_row("a" if i % 3 else f"x{i}", f"r{i}")
                   for i in range(25)])
        documents = {"L": XmlDocument(doubled), "R": XmlDocument(single)}
        statistics = collect_statistics(documents)
        source = ("for $a in doc('L')//row, $b in doc('R')//row "
                  "where $a/k = $b/k return $b/v")
        _assert_agree(source, documents, statistics)
        plan = compile_query(source, statistics=statistics)
        assert plan.decisions["hash-joins"] == 1


class TestJoinExplain:
    SOURCE = ("for $a in doc('L')//row, $b in doc('R')//row "
              "where $a/k = $b/k and $a/v != $b/v return $b/v")

    def test_join_group_node_records_search(self):
        plan = compile_query(self.SOURCE, statistics=BIG_STATS)
        data = plan.explain_data()
        groups = list(_find(data["root"], "join-group"))
        assert len(groups) == 1
        estimated = groups[0]["estimated"]
        assert estimated["strategy"] == "join-group"
        assert estimated["order"] == ["$a", "$b"] \
            or estimated["order"] == ["$b", "$a"]
        assert estimated["orders_considered"] >= 2
        assert estimated["alternatives"][0]["order"] == ["$a", "$b"]
        assert "join-group [order " in plan.explain()

    def test_hash_stage_estimates_and_alternatives(self):
        plan = compile_query(self.SOURCE, statistics=BIG_STATS)
        data = plan.explain_data()
        stages = list(_find(data["root"], "hash-join"))
        assert len(stages) == 1
        estimated = stages[0]["estimated"]
        assert estimated["strategy"] == "hash"
        assert estimated["est_build_rows"] > 0
        assert estimated["est_probe_rows"] > 0
        strategies = [alt["strategy"] for alt in estimated["alternatives"]]
        assert strategies == ["loop", "hash", "hash"]

    def test_explain_analyze_reports_build_and_probe_rows(self):
        plan = compile_query(self.SOURCE, statistics=BIG_STATS)
        result = plan.execute(BIG_DOCS, analyze=True)
        data = plan.explain_data(analyze=True)
        assert data["root"]["actual"]["rows"] == len(result)
        stage = next(_find(data["root"], "hash-join"))
        build = next(_find(stage, "join-build"))
        probe = next(_find(stage, "join-probe"))
        assert build["actual"]["rows"] == 30
        assert probe["actual"]["rows"] == 30
        assert stage["actual"]["rows"] >= len(result)

    def test_loop_stage_on_tiny_inputs(self):
        # Selective hoisted filters shrink both sides to ~1 row each:
        # the hash table can never pay back its setup cost.
        source = ("for $a in doc('L')//row, $b in doc('R')//row "
                  "where $a/v = 'l0' and $b/v = 'r1' and $a/k = $b/k "
                  "return $b/v")
        plan = compile_query(source, statistics=STATS)
        data = plan.explain_data()
        assert list(_find(data["root"], "loop-join"))
        assert not list(_find(data["root"], "hash-join"))
        _assert_agree(source)

    def test_joinless_identity_differs(self):
        joined = compile_query(self.SOURCE, statistics=STATS)
        nojoin = compile_query(self.SOURCE, statistics=STATS,
                               join_search=False)
        assert joined.identity != nojoin.identity
        # The computation fingerprint stays shared: costed choices are
        # answer-preserving, so cached results are interchangeable.
        assert joined.fingerprint == nojoin.fingerprint
        assert nojoin.decisions["join-groups"] == 0


class TestStageFallback:
    """The runtime loop fallback for key sequences with non-string atoms."""

    def _group(self, left_items, right_items, build):
        conjunct = ComparisonOp("=", VarRefOp("a"), VarRefOp("b"), None)
        stage = _JoinStage(
            position=1, variable="b", strategy="hash", build=build,
            edge=(0, VarRefOp("a"), VarRefOp("b"), conjunct),
            hash_filters=(), loop_filters=(conjunct,))
        return JoinGroupOp(
            variables=("a", "b"),
            sources=(SequenceOp(tuple(LiteralOp(v) for v in left_items)),
                     SequenceOp(tuple(LiteralOp(v) for v in right_items))),
            source_filters=((), ()), prefilters=(), start=0,
            stages=(stage,))

    @pytest.mark.parametrize("build", ["source", "tuples"])
    def test_string_keys_take_the_hash_path(self, build):
        group = self._group(["a", "b", "a"], ["b", "a"], build)
        rows = group.run(DynamicContext(), _ExecState())
        assert rows == [("a", "a"), ("b", "b"), ("a", "a")]

    @pytest.mark.parametrize("build", ["source", "tuples"])
    def test_numeric_keys_fall_back_to_the_loop(self, build):
        # Numbers atomize to floats: the hash path must refuse (string
        # equality is not numeric promotion) and the generic loop runs.
        group = self._group([1.0, 2.0], [2.0, 3.0], build)
        rows = group.run(DynamicContext(), _ExecState())
        assert rows == [(2.0, 2.0)]


_variables = ["x0", "x1", "x2", "x3"]


@st.composite
def _join_sources(draw):
    count = draw(st.integers(min_value=2, max_value=4))
    variables = _variables[:count]
    clauses = ", ".join(
        f"${variable} in doc('{draw(st.sampled_from(['L', 'R', 'T']))}')"
        f"//row" for variable in variables)
    conjuncts = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        kind = draw(st.sampled_from(
            ["equi", "equi", "single", "like", "nonequi", "raising",
             "numeric-pair"]))
        first = draw(st.sampled_from(variables))
        second = draw(st.sampled_from(variables))
        if kind == "equi":
            conjuncts.append(f"${first}/k = ${second}/k")
        elif kind == "single":
            literal = draw(st.sampled_from(["a", "b", "d", "zz"]))
            conjuncts.append(f"${first}/k = '{literal}'")
        elif kind == "like":
            literal = draw(st.sampled_from(["l", "r", "0", "q"]))
            conjuncts.append(f"${first}/v = '%{literal}%'")
        elif kind == "nonequi":
            conjuncts.append(f"${first}/v != ${second}/v")
        elif kind == "raising":
            bound = draw(st.sampled_from(["2", "3"]))
            conjuncts.append(f"${first}/n < {bound}")
        else:
            conjuncts.append(f"${first}/n < ${second}/n")
    where = " and ".join(conjuncts)
    order = draw(st.sampled_from(
        ["", " order by $x0/v", " order by $x1/k descending"]))
    returns = draw(st.sampled_from(
        ["$x0/v", "element hit {$x1/k}", "count($x0/k)"]))
    return f"for {clauses} where {where}{order} return {returns}"


class TestJoinProperties:
    """Randomized multi-source FLWORs: five engines, one outcome."""

    @settings(max_examples=200, deadline=None)
    @given(_join_sources())
    def test_all_engines_agree(self, source):
        _assert_agree(source)

    @settings(max_examples=60, deadline=None)
    @given(_join_sources())
    def test_costed_plan_is_deterministic(self, source):
        first = compile_query(source, statistics=STATS)
        second = compile_query(source, statistics=STATS)
        assert first.explain() == second.explain()
        assert first.identity == second.identity
