"""POST /api/query/batch and single-flight behavior of /api/query.

Driven through ``ThaliaApp.handle`` directly (no sockets): the app layer
is where caching, coalescing and batch fan-out live.
"""

import json
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.server import ThaliaApp
from repro.server.handlers import MAX_BATCH_QUERIES
from repro.server.router import Request
from repro.xquery import DocumentResolver

CMU_QUERY = 'FOR $c in doc("cmu.xml")/cmu/Course RETURN $c/CourseTitle'
ETH_QUERY = 'FOR $v in doc("eth.xml")/eth/Vorlesung RETURN $v/Titel'


def post(app, path, payload):
    response = app.handle(Request(
        method="POST", path=path,
        headers={"content-type": "application/json"},
        body=json.dumps(payload).encode("utf-8")))
    return response.status, json.loads(response.body.decode("utf-8"))


@pytest.fixture(scope="module")
def app(paper_testbed, tmp_path_factory):
    application = ThaliaApp(
        testbed=paper_testbed,
        scores_path=tmp_path_factory.mktemp("scores") / "roll.jsonl",
        query_workers=4)
    yield application
    application.close()


class TestSingleQueryCaching:
    def test_repeat_query_is_served_cached(self, app):
        payload = {"xquery": CMU_QUERY, "source": "cmu"}
        status, first = post(app, "/api/query", payload)
        assert status == 200 and first["count"] > 0
        status, second = post(app, "/api/query", payload)
        assert status == 200
        assert second["cached"] is True
        assert first["cached"] is False or first["cached"] is True
        assert second["items"] == first["items"]
        assert second["plan"] == first["plan"]

    def test_source_scope_changes_cache_key(self, app):
        scoped_status, scoped = post(
            app, "/api/query", {"xquery": CMU_QUERY, "source": "cmu"})
        full_status, full = post(app, "/api/query", {"xquery": CMU_QUERY})
        assert scoped_status == full_status == 200
        # Same answer either way (the query only reads cmu), but the two
        # scopes are distinct cache entries with distinct fingerprints.
        assert scoped["items"] == full["items"]
        assert app.results.stats()["size"] >= 2

    def test_stats_exposes_result_cache(self, app):
        response = app.handle(Request(method="GET", path="/api/stats"))
        payload = json.loads(response.body.decode("utf-8"))
        assert "result_cache" in payload
        for key in ("hits", "misses", "coalesced", "evictions", "bytes"):
            assert key in payload["result_cache"]

    def test_syntax_error_still_400(self, app):
        status, body = post(app, "/api/query", {"xquery": "FOR $x IN IN"})
        assert status == 400
        assert "XQuerySyntaxError" in body["error"]

    def test_unknown_source_still_404(self, app):
        status, body = post(app, "/api/query",
                            {"xquery": CMU_QUERY, "source": "nowhere"})
        assert status == 404

    def test_all_document_queries_share_one_resolver(self, app,
                                                     monkeypatch):
        """``Testbed.documents`` is a fresh dict per call, so a resolver
        cache keyed on the mapping never hits; the testbed's own
        resolver is built at most once however many queries run."""
        built = []
        original = DocumentResolver.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            original(self, *args, **kwargs)

        monkeypatch.setattr(DocumentResolver, "__init__", counting)
        for title in ("Database", "Compiler"):
            status, body = post(app, "/api/query", {"xquery": (
                'FOR $c in doc("cmu.xml")/cmu/Course '
                f'WHERE contains($c/CourseTitle, "{title}") RETURN $c')})
            assert status == 200 and body["cached"] is False
        assert len(built) <= 1


class TestBatchEndpoint:
    def test_batch_runs_in_input_order(self, app):
        status, body = post(app, "/api/query/batch", {"queries": [
            {"xquery": CMU_QUERY, "source": "cmu"},
            {"xquery": ETH_QUERY, "source": "eth"},
        ]})
        assert status == 200 and body["count"] == 2
        first, second = body["results"]
        assert first["status"] == second["status"] == 200
        assert "CourseTitle" in first["items"][0]
        assert "Titel" in second["items"][0]

    def test_batch_matches_single_endpoint(self, app):
        _, single = post(app, "/api/query",
                         {"xquery": CMU_QUERY, "source": "cmu"})
        _, batch = post(app, "/api/query/batch", {"queries": [
            {"xquery": CMU_QUERY, "source": "cmu"}]})
        assert batch["results"][0]["items"] == single["items"]

    def test_bad_item_does_not_sink_batch(self, app):
        status, body = post(app, "/api/query/batch", {"queries": [
            {"xquery": CMU_QUERY, "source": "cmu"},
            {"xquery": "FOR $x IN IN"},
            {"xquery": CMU_QUERY, "source": "nowhere"},
        ]})
        assert status == 200
        statuses = [result["status"] for result in body["results"]]
        assert statuses == [200, 400, 404]

    def test_too_deep_item_does_not_sink_batch(self, app):
        status, body = post(app, "/api/query/batch", {"queries": [
            {"xquery": CMU_QUERY, "source": "cmu"},
            {"xquery": "not " * 1000 + "true()"},
        ]})
        assert status == 200
        assert [result["status"] for result in body["results"]] == \
            [200, 400]

    def test_rejects_malformed_bodies(self, app):
        assert post(app, "/api/query/batch", {"queries": []})[0] == 400
        assert post(app, "/api/query/batch", {"nope": 1})[0] == 400
        assert post(app, "/api/query/batch", [CMU_QUERY])[0] == 400

    def test_rejects_oversized_batch(self, app):
        queries = [{"xquery": CMU_QUERY}] * (MAX_BATCH_QUERIES + 1)
        status, body = post(app, "/api/query/batch", {"queries": queries})
        assert status == 400
        assert "batch limit" in body["error"]


class TestCoalescing:
    def test_identical_concurrent_requests_execute_once(
            self, paper_testbed, tmp_path):
        app = ThaliaApp(testbed=paper_testbed,
                        scores_path=tmp_path / "roll.jsonl",
                        query_workers=4)
        try:
            # Fresh app: warmed plans have runs == 0.  A query no one has
            # run yet, issued N times concurrently, must execute exactly
            # once — followers coalesce onto the leader's flight.
            source = ('FOR $c in doc("cmu.xml")/cmu/Course '
                      'WHERE contains($c/CourseTitle, "Database") '
                      'RETURN $c')
            plan = app.plans.get(source)
            assert plan.runs == 0
            barrier = threading.Barrier(8)

            def issue():
                barrier.wait(timeout=30)
                return post(app, "/api/query",
                            {"xquery": source, "source": "cmu"})

            with ThreadPoolExecutor(max_workers=8) as pool:
                outcomes = list(pool.map(lambda _: issue(), range(8)))

            assert plan.runs == 1
            bodies = [body for status, body in outcomes if status == 200]
            assert len(bodies) == 8
            assert all(body["items"] == bodies[0]["items"]
                       for body in bodies)
            stats = app.results.stats()
            assert stats["misses"] == 1
            assert stats["coalesced"] + stats["hits"] == 7
        finally:
            app.close()
