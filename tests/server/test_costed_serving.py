"""Costed plans on every served query path.

``/api/query``, ``/api/query/batch`` and ``/api/explain`` compile through
one entry point (``handlers.compile_plan``), so the plan a query runs is
the costed plan explain describes — hash joins included.
"""

import json

import pytest

from repro.server import ThaliaApp
from repro.server.router import Request
from repro.xquery.plan import compile_query

SELF_JOIN = ('for $a in doc("cmu.xml")/cmu/Course, '
             '$b in doc("cmu.xml")/cmu/Course '
             'where $a/Lecturer = $b/Lecturer return $b/CourseNum')
SELECTION = ('FOR $c in doc("cmu.xml")/cmu/Course '
             'WHERE $c/CourseTitle = "%Database%" RETURN $c/CourseTitle')


def post(app, path, payload):
    response = app.handle(Request(
        method="POST", path=path,
        headers={"content-type": "application/json"},
        body=json.dumps(payload).encode("utf-8")))
    return response.status, json.loads(response.body.decode("utf-8"))


@pytest.fixture
def app(paper_testbed, tmp_path):
    app = ThaliaApp(testbed=paper_testbed,
                    scores_path=tmp_path / "roll.jsonl")
    yield app
    app.close()


class TestOneCompileEntryPoint:
    def test_query_then_explain_share_one_costed_plan(self, app):
        status, _body = post(app, "/api/query", {"xquery": SELECTION})
        assert status == 200
        status, body = post(app, "/api/explain", {"xquery": SELECTION})
        assert status == 200
        assert body["explain"]["costed"] is True
        plans = app.plans.values()
        assert len(plans) == 1
        assert plans[0].costed is True
        assert plans[0].runs == 1

    def test_batch_items_run_costed_plans(self, app):
        status, body = post(app, "/api/query/batch", {"queries": [
            {"xquery": SELECTION}, {"xquery": SELF_JOIN}]})
        assert status == 200
        assert [item["status"] for item in body["results"]] == [200, 200]
        plans = app.plans.values()
        assert len(plans) == 2
        assert all(plan.costed and plan.runs == 1 for plan in plans)

    def test_boot_compiles_nothing(self, app):
        assert len(app.plans) == 0


class TestServedHashJoin:
    def test_self_join_runs_a_hash_join_without_explain(self, app):
        status, body = post(app, "/api/query", {"xquery": SELF_JOIN})
        assert status == 200
        stats = app.handle(Request(method="GET", path="/api/stats",
                                   headers={}, body=b""))
        planner = json.loads(stats.body)["planner"]
        assert planner["explains"] == 0
        assert planner["costed_plans"] == 1
        assert planner["costed_decisions"].get("hash-joins", 0) >= 1

    def test_served_answer_and_plan_info_are_the_costed_runs(
            self, app, paper_testbed):
        status, body = post(app, "/api/query", {"xquery": SELF_JOIN})
        assert status == 200
        plan = compile_query(SELF_JOIN, statistics=app.statistics)
        items = plan.execute(paper_testbed.document_resolver())
        assert body["count"] == len(items)
        assert body["plan"]["nodes_visited"] \
            == plan.last_stats.nodes_visited
        assert body["plan"]["index_lookups"] \
            == plan.last_stats.index_lookups
        # The rule-based plan of the same join runs the nested loop and
        # touches several times the nodes.
        rule = compile_query(SELF_JOIN)
        rule.execute(paper_testbed.document_resolver())
        assert rule.last_stats.nodes_visited \
            > body["plan"]["nodes_visited"]
