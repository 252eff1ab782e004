"""The column kernel for pushed ``./child op literal`` predicates.

A normal execution runs such predicates in one loop over the candidates
(:func:`repro.xquery.plan._column_filter`); an analyzed execution runs
them operator by operator.  The two must agree with each other and with
the interpreter on answers, on the plan counters every response reports
and on the document index's lookup counters.
"""

import sys
import threading

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.xmlmodel import XmlDocument, element
from repro.xquery import compile_query
from repro.xquery import plan as plan_module
from repro.xquery.context import DynamicContext
from repro.xquery.differential import outcome, render
from repro.xquery.evaluator import evaluate
from repro.xquery.parser import parse_query

#: Child contents: plain, whitespace-padded, numeric-looking, empty,
#: and mixed (text around a nested element).
_CONTENTS = st.sampled_from([
    "x", " x ", "x  y", "y", "5", " 12 ", "", "it's",
    ("a", element("b", "x"), " c"),
])
_LITERALS = st.sampled_from([
    "'x'", "'y'", "'x y'", "'%x%'", "'x_'", "'_'", "'%'", "'5'", "'12'",
    "''", "'it''s'", "5", "12", "1.5",
])
_OPS = st.sampled_from(["=", "!=", "<", "<=", ">", ">="])


@st.composite
def _documents(draw):
    records = []
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        children = []
        # The compared child is missing, present once or repeated.
        for _ in range(draw(st.integers(min_value=0, max_value=3))):
            content = draw(_CONTENTS)
            parts = content if isinstance(content, tuple) else (content,)
            children.append(element("v", *parts))
        if draw(st.booleans()):
            children.append(element("w", "x"))
        records.append(element("c", *children))
    return XmlDocument(element("r", *records))


@st.composite
def _queries(draw):
    literal = draw(_LITERALS)
    op = draw(_OPS)
    comparison = draw(st.sampled_from([
        f"v {op} {literal}", f"{literal} {op} v"]))
    shape = draw(st.sampled_from(["predicate", "where"]))
    if shape == "predicate":
        return f"doc('d')/r/c[{comparison}]"
    variable = comparison.replace("v ", "$i/v ", 1) \
        if comparison.startswith("v ") else comparison.replace(" v", " $i/v")
    return f"for $i in doc('d')/r/c where {variable} return $i"


def _run(source, document, analyze):
    """(outcome, plan counters, index counters) of one execution over a
    fresh index counter window."""
    plan = compile_query(source)
    index = document.index()
    index.reset_counters()
    result = outcome(lambda: plan.execute({"d": document}, analyze=analyze))
    stats = plan.last_stats
    counters = None if stats is None \
        else (stats.nodes_visited, stats.index_lookups)
    lookups = index.stats()
    return result, counters, (lookups["child_lookups"],
                              lookups["descendant_lookups"],
                              lookups["string_lookups"])


class TestAgainstGenericPath:
    @settings(max_examples=300, deadline=None)
    @given(document=_documents(), source=_queries())
    def test_kernel_matches_operators_and_interpreter(self, document,
                                                      source):
        normal = _run(source, document, analyze=False)
        analyzed = _run(source, document, analyze=True)
        interpreted = outcome(lambda: evaluate(
            parse_query(source), DynamicContext(documents={"d": document})))
        assert normal[0] == analyzed[0] == interpreted
        if normal[0][:1] != ("raised",):
            assert normal[1] == analyzed[1]
        assert normal[2] == analyzed[2]


def _counting(monkeypatch):
    calls = []
    original = plan_module._column_filter

    def counted(*args):
        calls.append(args[1])
        return original(*args)

    monkeypatch.setattr(plan_module, "_column_filter", counted)
    return calls


DOCUMENT = XmlDocument(element(
    "r",
    element("c", element("v", "x"), element("v", " y ")),
    element("c", element("w", "x")),
    element("c", element("v", "alpha x")),
))


class TestWhenTheKernelRuns:
    def test_pushed_like_and_plain_predicates_run_in_the_kernel(
            self, monkeypatch):
        calls = _counting(monkeypatch)
        plan = compile_query("for $i in doc('d')/r/c where $i/v = '%x%' "
                             "and 'y' != $i/v return $i")
        assert len(plan.execute({"d": DOCUMENT})) == 2
        assert [shape[0] for shape in calls] == ["v", "v"]

    def test_analyzed_runs_take_the_operator_path(self, monkeypatch):
        calls = _counting(monkeypatch)
        plan = compile_query("doc('d')/r/c[v = 'x']")
        plan.execute({"d": DOCUMENT}, analyze=True)
        assert calls == []

    def test_other_shapes_stay_generic(self, monkeypatch):
        calls = _counting(monkeypatch)
        for source in ("doc('d')/r/c[v/text() = 'x']",
                       "doc('d')/r/c[./* = 'x']",
                       "doc('d')/r/c[v = v]",
                       "doc('d')/r/c[v[1] = 'x']",
                       "doc('d')/r/c[contains(v, 'x')]"):
            outcome(lambda: compile_query(source).execute({"d": DOCUMENT}))
        assert calls == []

    def test_candidates_outside_the_index_take_the_operator_path(self):
        # $o's records belong to another document, so the active index
        # (doc d's) does not cover them: the kernel hands each one to
        # the operators, and every engine still agrees.
        other = XmlDocument(element(
            "r", element("c", element("v", "x")),
            element("c", element("v", "z"))))
        source = ("let $o := doc('e')/r "
                  "return doc('d')/r/c[$o/c[v = 'x']]")
        documents = {"d": DOCUMENT, "e": other}
        plan = compile_query(source)
        normal = render(plan.execute(documents))
        normal_stats = plan.last_stats
        analyzed = render(plan.execute(documents, analyze=True))
        analyzed_stats = plan.last_stats
        interpreted = render(evaluate(parse_query(source),
                                      DynamicContext(documents=documents)))
        assert normal == analyzed == interpreted
        assert len(normal) == 3
        assert (normal_stats.nodes_visited, normal_stats.index_lookups) \
            == (analyzed_stats.nodes_visited, analyzed_stats.index_lookups)


class TestColumnMemo:
    def test_column_is_built_once_and_matches_string_of(self):
        document = XmlDocument(element(
            "r", element("c", element("v", " a  b "), element("v", "c")),
            element("c")))
        index = document.index()
        column = index.column("v")
        assert index.column("v") is column
        first = document.root.element_children[0]
        assert column[id(first)] == ("a b", "c")
        assert column[id(first)] == tuple(
            index.string_of(child)
            for child in index.children_of(first, "v"))
        assert id(document.root.element_children[1]) not in column


class TestConcurrentColumnBuilds:
    def test_racing_builders_all_read_the_first_published_column(self):
        document = XmlDocument(element("r", *[
            element("c", element("v", str(n)), element("v", "x"))
            for n in range(400)]))
        index = document.index()
        columns = []
        start = threading.Barrier(8)

        def build():
            start.wait(timeout=10)
            columns.append(index.column("v"))

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=build) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert len(columns) == 8
        assert all(column is columns[0] for column in columns)
        assert len(columns[0]) == 400
