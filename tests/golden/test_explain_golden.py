"""Golden snapshots of the plans the 12 benchmark queries compile to.

``explain/`` pins the rule-based ``Plan.explain()`` text; it is part of
the query-plan API contract: deterministic, stable text.
``explain_costed/`` pins each query's costed plan over the scale-4
paper sources as EXPLAIN ANALYZE without wall time: the explain text
(rewrites, costed decisions, ``[via <strategy>, est=N]`` per step), the
plan identity (which carries the statistics fingerprint), the result
cardinality and every operator's actual rows and calls.  A diff here
means the planner changed what it actually runs, or what it expects
the run to see — review it, then regenerate every golden with::

    PYTHONPATH=src python -m repro.tools.regen_golden
"""

from pathlib import Path

import pytest

from repro.core.queries import QUERIES
from repro.tools.regen_golden import (
    costed_explain_text,
    costed_testbed,
)
from repro.xquery import compile_query
from repro.xquery.cost import operator_q_errors

GOLDEN_DIR = Path(__file__).parent / "explain"
COSTED_GOLDEN_DIR = Path(__file__).parent / "explain_costed"

#: No costed operator's cardinality estimate may be off by more than
#: this factor (``q_error``) on the costed goldens' testbed; small
#: results legitimately estimate 4 rows and see 1.
Q_ERROR_BOUND = 4.0

QUERY_IDS = [f"q{q.number:02d}" for q in QUERIES]


class TestExplainGolden:
    @pytest.mark.parametrize("query", QUERIES, ids=QUERY_IDS)
    def test_explain_matches_snapshot(self, query):
        golden = (GOLDEN_DIR / f"q{query.number:02d}.txt").read_text(
            encoding="utf-8")
        assert compile_query(query.xquery).explain() + "\n" == golden

    @pytest.mark.parametrize("query", QUERIES, ids=QUERY_IDS)
    def test_explain_is_deterministic(self, query):
        assert compile_query(query.xquery).explain() == \
            compile_query(query.xquery).explain()

    def test_every_benchmark_plan_is_index_backed(self):
        for query in QUERIES:
            plan = compile_query(query.xquery)
            assert plan.rewrites["index-paths"] >= 1, query.number

    def test_every_benchmark_where_is_fused(self):
        for query in QUERIES:
            plan = compile_query(query.xquery)
            assert plan.rewrites["where-to-predicate"] >= 1, query.number


@pytest.fixture(scope="module")
def costed():
    return costed_testbed()


def costed_golden(number: int) -> str:
    return (COSTED_GOLDEN_DIR / f"q{number:02d}.txt").read_text(
        encoding="utf-8")


def worst_q_error(plan) -> float:
    """The worst q-error over *plan*'s costed operators in its last
    analyzed run."""
    return max(operator_q_errors(plan.explain_data(analyze=True)),
               default=1.0)


Q5 = next(query for query in QUERIES if query.number == 5)


class TestCostedExplainGolden:
    @pytest.mark.parametrize("query", QUERIES, ids=QUERY_IDS)
    def test_costed_explain_matches_golden(self, query, costed):
        testbed, statistics = costed
        plan = compile_query(query.xquery, statistics=statistics)
        assert costed_explain_text(plan, testbed) \
            == costed_golden(query.number)

    @pytest.mark.parametrize("query", QUERIES, ids=QUERY_IDS)
    def test_estimates_within_q_error_bound(self, query, costed):
        testbed, statistics = costed
        plan = compile_query(query.xquery, statistics=statistics)
        plan.execute(testbed.document_resolver(), analyze=True)
        assert worst_q_error(plan) <= Q_ERROR_BOUND

    def test_perturbed_plan_differs_from_golden(self, costed):
        """The index-path rewrite off: a different plan, same item count."""
        testbed, _ = costed
        text = costed_explain_text(
            compile_query(Q5.xquery, perturb=True), testbed)
        golden = costed_golden(5)
        assert text != golden
        assert "perturbed: index-paths disabled" in text
        items = [line for line in golden.split("\n")
                 if line.startswith("items: ")]
        assert items and items[0] in text.split("\n")

    def test_inflated_estimates_break_the_bound(self, costed):
        """Statistics inflated 100x: answers unchanged, estimates wrong."""
        testbed, statistics = costed
        plan = compile_query(Q5.xquery, statistics=statistics.scaled(100))
        assert costed_explain_text(plan, testbed) != costed_golden(5)
        assert worst_q_error(plan) > Q_ERROR_BOUND
