"""The explain API: ``Plan.explain_data()`` as the single source of
truth, text/json rendering, EXPLAIN ANALYZE actuals."""

import json

import pytest

from repro.core.queries import QUERIES
from repro.xquery import compile_query
from repro.xquery.stats import collect_statistics


@pytest.fixture(scope="module")
def documents(paper_testbed):
    return paper_testbed.documents


@pytest.fixture(scope="module")
def statistics(paper_testbed):
    return collect_statistics(
        paper_testbed.documents,
        fingerprint=paper_testbed.content_fingerprint())


class TestExplainData:
    def test_schema_and_json_round_trip(self, statistics):
        plan = compile_query(QUERIES[0].xquery, statistics=statistics)
        data = plan.explain_data()
        assert data["version"] == 1
        assert data["xquery"] == QUERIES[0].xquery
        assert data["costed"] is True
        assert data["statistics_fingerprint"] == statistics.fingerprint
        assert data["analyzed"] is False
        assert all(isinstance(count, int)
                   for count in data["rewrites"].values())
        assert all(isinstance(count, int)
                   for count in data["decisions"].values())
        # The whole tree must survive a JSON round trip unchanged.
        assert json.loads(json.dumps(data)) == data

        def walk(entry):
            assert set(entry) >= {"kind", "label", "children"}
            assert "actual" not in entry
            for child in entry["children"]:
                walk(child)

        walk(data["root"])

    def test_uncosted_plan_has_no_estimates(self):
        plan = compile_query(QUERIES[0].xquery)
        data = plan.explain_data()
        assert data["costed"] is False
        assert data["statistics_fingerprint"] is None

        def walk(entry):
            assert entry.get("estimated") is None \
                or "strategy" not in entry["estimated"]
            for child in entry["children"]:
                walk(child)

        walk(data["root"])

    def test_text_rendering_comes_from_explain_data(self, statistics):
        plan = compile_query(QUERIES[0].xquery, statistics=statistics)
        assert plan.explain() == plan.explain(analyze=False, format="text")
        assert json.loads(plan.explain(format="json")) \
            == plan.explain_data()

    def test_unknown_format_rejected(self):
        plan = compile_query("1 + 1")
        with pytest.raises(ValueError):
            plan.explain(format="yaml")


class TestExplainAnalyze:
    def test_actuals_require_an_analyzed_run(self, documents):
        plan = compile_query(QUERIES[0].xquery)
        with pytest.raises(ValueError):
            plan.explain_data(analyze=True)
        plan.execute(documents)          # un-analyzed runs don't count
        with pytest.raises(ValueError):
            plan.explain_data(analyze=True)

    def test_root_actual_rows_match_execution_exactly(
            self, documents, statistics):
        for query in QUERIES:
            plan = compile_query(query.xquery, statistics=statistics)
            result = plan.execute(documents, analyze=True)
            data = plan.explain_data(analyze=True)
            assert data["analyzed"] is True
            actual = data["root"]["actual"]
            assert actual["rows"] == len(result), f"Q{query.number}"
            assert actual["calls"] == 1
            assert actual["wall_ns"] >= 0

    def test_analyzed_text_contains_actuals(self, documents, statistics):
        plan = compile_query(QUERIES[0].xquery, statistics=statistics)
        plan.execute(documents, analyze=True)
        text = plan.explain(analyze=True)
        assert "actual rows=" in text
        assert "calls=" in text
        # The default rendering stays byte-identical to the un-analyzed
        # view — actuals only appear when asked for.
        assert "actual rows=" not in plan.explain()

    def test_estimates_paired_with_actuals_per_operator(
            self, documents, statistics):
        plan = compile_query(QUERIES[0].xquery, statistics=statistics)
        plan.execute(documents, analyze=True)
        data = plan.explain_data(analyze=True)

        paired = []

        def walk(entry):
            if entry.get("estimated") and entry.get("actual"):
                paired.append(entry)
            for child in entry["children"]:
                walk(child)

        walk(data["root"])
        assert paired, "no operator carries both an estimate and actuals"
        for entry in paired:
            assert entry["actual"]["rows"] >= 0
            estimated = entry["estimated"]
            assert estimated.get("est_rows") is not None \
                or estimated.get("est_selectivity") is not None

    def test_last_analyzed_run_wins(self, documents, statistics):
        plan = compile_query("doc('cmu.xml')//Course", statistics=statistics)
        full = plan.execute(documents, analyze=True)
        subset = {"cmu": documents["cmu"]}
        again = plan.execute(subset, analyze=True)
        assert len(again) == len(full)
        data = plan.explain_data(analyze=True)
        assert data["root"]["actual"]["rows"] == len(again)
