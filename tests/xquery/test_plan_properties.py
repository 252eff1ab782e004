"""Property test: Plan.execute ≡ evaluate on randomized queries.

Queries are generated compositionally over a small fixed document so the
planner's rewrites (constant folding, WHERE fusion, index-backed paths)
all get exercised; results — including raised XQueryError types — must
match the tree-walking interpreter exactly.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.xmlmodel import XmlDocument, XmlElement, element, serialize
from repro.xquery import compile_query
from repro.xquery.context import DynamicContext
from repro.xquery.errors import XQueryError
from repro.xquery.evaluator import evaluate
from repro.xquery.parser import parse_query


def _docs():
    root = element(
        "r",
        element("c", element("v", "x"), element("w", "5"),
                element("t", "alpha beta")),
        element("c", element("v", "y"), element("w", "2")),
        element("c", element("v", "x"), element("w", "7"),
                element("t", "gamma")),
    )
    return {"d": XmlDocument(root)}


DOCS = _docs()

_tags = st.sampled_from(["c", "v", "w", "t", "missing"])
_strings = st.sampled_from(["'x'", "'y'", "'%x%'", "'alpha%'", "''"])
_numbers = st.sampled_from(["1", "2", "5", "0"])
_cmp_ops = st.sampled_from(["=", "!=", "<", "<=", ">", ">="])


@st.composite
def _paths(draw):
    steps = draw(st.lists(_tags, min_size=1, max_size=3))
    sep = draw(st.sampled_from(["/", "//"]))
    return "doc('d')" + sep + "/".join(steps)


@st.composite
def _conditions(draw):
    left = draw(st.one_of(
        _paths().map(lambda p: p),
        st.just("$i/v"),
        st.just("$i/w"),
    ))
    op = draw(_cmp_ops)
    right = draw(st.one_of(_strings, _numbers))
    condition = f"{left} {op} {right}"
    # $i inside a nested predicate, where '.' is the inner item: WHERE
    # fusion must leave such a conjunct alone.
    nested = f"$i/v = {draw(_strings)}"
    condition = draw(st.sampled_from([
        condition, condition, condition,
        f"exists(doc('d')/r/c[{nested}])",
        f"$i/w[{nested}] {op} {right}",
    ]))
    if draw(st.booleans()):
        other = f"$i/v = {draw(_strings)}"
        joiner = draw(st.sampled_from(["and", "or"]))
        condition = f"{condition} {joiner} {other}"
    return condition


@st.composite
def _queries(draw):
    shape = draw(st.integers(min_value=0, max_value=3))
    if shape == 0:
        return draw(_paths())
    if shape == 1:
        path = draw(_paths())
        predicate = draw(st.one_of(
            st.just("1"), st.just("2"), st.just("position() < 3"),
            st.just("v = 'x'"), st.just("last()")))
        return f"{path}[{predicate}]"
    if shape == 2:
        condition = draw(_conditions())
        returns = draw(st.sampled_from(
            ["$i", "$i/v", "element hit {$i/v}", "count($i/w)"]))
        order = draw(st.sampled_from(
            ["", " order by $i/v", " order by $i/w descending"]))
        return (f"for $i in doc('d')/r/c where {condition}{order} "
                f"return {returns}")
    kind = draw(st.sampled_from(["some", "every"]))
    condition = draw(_conditions())
    return f"{kind} $i in doc('d')/r/c satisfies {condition}"


def _run_interpreter(source):
    try:
        return [serialize(i) if isinstance(i, XmlElement) else i
                for i in evaluate(parse_query(source),
                                  DynamicContext(documents=DOCS))]
    except XQueryError as exc:
        return ("raised", type(exc).__name__)


def _run_plan(source):
    try:
        plan = compile_query(source)
        return [serialize(i) if isinstance(i, XmlElement) else i
                for i in plan.execute(DOCS)]
    except XQueryError as exc:
        return ("raised", type(exc).__name__)


class TestPlanInterpreterEquivalence:
    @settings(max_examples=300, deadline=None)
    @given(_queries())
    def test_plan_execute_matches_evaluate(self, source):
        assert _run_plan(source) == _run_interpreter(source)

    @settings(max_examples=100, deadline=None)
    @given(_queries())
    def test_plan_is_deterministic_across_runs(self, source):
        first = _run_plan(source)
        try:
            plan = compile_query(source)
        except XQueryError:
            return
        try:
            second = [serialize(i) if isinstance(i, XmlElement) else i
                      for i in plan.execute(DOCS)]
            third = [serialize(i) if isinstance(i, XmlElement) else i
                     for i in plan.execute(DOCS)]
        except XQueryError as exc:
            assert first == ("raised", type(exc).__name__)
            return
        assert first == second == third
        assert plan.explain() == compile_query(source).explain()
