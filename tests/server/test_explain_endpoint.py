"""POST /api/explain and the planner block of /api/stats."""

import json
import urllib.error
import urllib.request

import pytest

from repro.core import QUERIES
from repro.server import HonorRollStore, ThaliaApp, ThaliaServer
from repro.server.router import Request


def fetch(base, path, data=None, headers=None, method=None):
    if method is None:
        method = "POST" if data is not None else "GET"
    request = urllib.request.Request(base + path, data=data,
                                     headers=headers or {}, method=method)
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, dict(response.headers), response.read()
    except urllib.error.HTTPError as exc:
        return exc.code, dict(exc.headers), exc.read()


def post_json(base, path, payload):
    return fetch(base, path, data=json.dumps(payload).encode("utf-8"),
                 headers={"Content-Type": "application/json"})


@pytest.fixture(scope="module")
def server(paper_testbed, tmp_path_factory):
    store = HonorRollStore(
        tmp_path_factory.mktemp("scores") / "roll.jsonl")
    app = ThaliaApp(testbed=paper_testbed, store=store)
    with ThaliaServer(app, port=0, pool_size=8) as running:
        yield running


@pytest.fixture(scope="module")
def base(server):
    return server.url


class TestExplainEndpoint:
    def test_plain_explain(self, base):
        status, headers, body = post_json(
            base, "/api/explain", {"xquery": QUERIES[0].xquery})
        assert status == 200
        payload = json.loads(body)
        assert payload["explain"]["costed"] is True
        assert payload["explain"]["analyzed"] is False
        assert payload["explain"]["root"]["children"]
        assert payload["text"].startswith("plan for:")
        assert "actual rows=" not in payload["text"]
        assert "ETag" in headers

    def test_analyze_joins_actuals(self, base):
        status, _headers, body = post_json(
            base, "/api/explain",
            {"xquery": QUERIES[0].xquery, "analyze": True})
        assert status == 200
        payload = json.loads(body)
        assert payload["explain"]["analyzed"] is True
        assert payload["explain"]["root"]["actual"]["calls"] >= 1
        assert "actual rows=" in payload["text"]

    def test_etag_revalidation(self, base):
        request = {"xquery": QUERIES[1].xquery}
        _status, headers, _body = post_json(base, "/api/explain", request)
        etag = headers["ETag"]
        status, _headers, body = fetch(
            base, "/api/explain",
            data=json.dumps(request).encode("utf-8"),
            headers={"Content-Type": "application/json",
                     "If-None-Match": etag})
        assert status == 304
        assert body == b""

    def test_single_source_scope(self, base):
        status, _headers, body = post_json(
            base, "/api/explain",
            {"xquery": "doc('cmu.xml')//Course", "source": "cmu",
             "analyze": True})
        assert status == 200
        payload = json.loads(body)
        assert payload["explain"]["root"]["actual"]["rows"] > 0

    def test_unknown_source_404(self, base):
        status, _headers, _body = post_json(
            base, "/api/explain",
            {"xquery": "1 + 1", "source": "nope"})
        assert status == 404

    def test_syntax_error_carries_location(self, base):
        status, _headers, body = post_json(
            base, "/api/explain", {"xquery": "for $x in (1,"})
        assert status == 400
        payload = json.loads(body)
        assert "XQuerySyntaxError" in payload["error"]
        assert payload["line"] >= 1

    def test_too_deeply_nested_query_400(self, base):
        status, _headers, body = post_json(
            base, "/api/explain",
            {"xquery": "count(" * 1000 + "1" + ")" * 1000})
        assert status == 400
        assert "nested deeper than" in json.loads(body)["error"]

    def test_malformed_body_rejected(self, base):
        status, _headers, _body = post_json(base, "/api/explain",
                                            {"analyze": True})
        assert status == 400
        status, _headers, _body = post_json(
            base, "/api/explain", {"xquery": "1", "analyze": "yes"})
        assert status == 400


class TestPlannerStats:
    def test_stats_planner_block(self, base):
        post_json(base, "/api/explain",
                  {"xquery": QUERIES[2].xquery, "analyze": True})
        status, _headers, body = fetch(base, "/api/stats")
        assert status == 200
        planner = json.loads(body)["planner"]
        assert planner["explains"] >= 1
        assert planner["analyzed_explains"] >= 1
        assert planner["costed_plans"] >= 1
        assert planner["costed_decisions"]["steps-costed"] >= 1
        cache = planner["statistics_cache"]
        assert cache["hits"] + cache["misses"] >= 1
        like_cache = planner["like_cache"]
        assert set(like_cache) == {"hits", "misses", "entries", "maxsize"}
        assert like_cache["maxsize"] >= like_cache["entries"] >= 0
        errors = planner["estimate_errors"]
        assert errors is not None
        assert errors["count"] >= 1
        assert errors["p50"] <= errors["p95"] <= errors["max"]

    def test_counters_count_requests_not_builds(self, paper_testbed,
                                                tmp_path):
        """Replays from the content cache count as explains too; only
        the q-error window is fed by builds alone."""
        app = ThaliaApp(testbed=paper_testbed,
                        scores_path=tmp_path / "roll.jsonl")

        def explain(analyze: bool) -> None:
            response = app.handle(Request(
                method="POST", path="/api/explain", headers={},
                body=json.dumps({"xquery": QUERIES[2].xquery,
                                 "analyze": analyze}).encode("utf-8")))
            assert response.status == 200

        for analyze in (False, False, False, True, True):
            explain(analyze)
        planner = app.planner_stats()
        assert planner["explains"] == 5
        assert planner["analyzed_explains"] == 2
        built = planner["estimate_errors"]["count"]
        explain(True)                  # a replay: no new run to fold
        assert app.planner_stats()["estimate_errors"]["count"] == built
        app.close()
