"""HTTP behavior of the benchmark service, driven over real sockets.

One server per test module, over the nine paper-pinned sources; a few
tests boot private servers to exercise cold caches and restarts.
"""

import contextlib
import gzip
import json
import logging
import socket
import threading
import time
import urllib.error
import urllib.request
import zipfile
from concurrent.futures import ThreadPoolExecutor
from io import BytesIO

import pytest

from repro.server import HonorRollStore, ThaliaApp, ThaliaServer
from repro.server import app as app_module
from repro.server.app import MAX_BODY


def fetch(base, path, data=None, headers=None, method=None):
    """(status, headers, body) for one request; HTTP errors returned,
    not raised."""
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


def make_card_dict(system, correct, effort="LOW"):
    return {"system": system, "outcomes": [
        {"number": n, "supported": n <= correct, "correct": n <= correct,
         "effort": effort if n <= correct else None, "note": ""}
        for n in range(1, 13)]}


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


class TestPages:
    @pytest.mark.parametrize("path,needle", [
        ("/", b"Test Harness for the Assessment"),
        ("/index.html", b"Test Harness for the Assessment"),
        ("/classification.html", b"Heterogeneity Classification"),
        ("/catalogs/", b"University Course Catalogs"),
        ("/catalogs/cmu.html", b"Catalog snapshot"),
        ("/data/", b"Browse Data and Schema"),
        ("/data/cmu_xml.html", b"CourseTitle"),
        ("/data/cmu_xsd.html", b"xs:schema"),
        ("/benchmark/", b"thalia_catalogs.zip"),
        ("/benchmark/query04.html", b"Umfang"),
        ("/honor-roll", b"Honor Roll"),
    ])
    def test_page_serves(self, base, path, needle):
        status, headers, body = fetch(base, path)
        assert status == 200
        assert needle in body
        assert headers["Content-Type"].startswith("text/html")

    def test_page_matches_static_site(self, base, server):
        """A live page and the generated site are byte-identical."""
        _, _, body = fetch(base, "/catalogs/cmu.html")
        expected = server.app.site.render_page("catalogs/cmu.html")
        assert body.decode("utf-8") == expected

    def test_unknown_page_404(self, base):
        status, _, _ = fetch(base, "/catalogs/nowhere.html")
        assert status == 404

    def test_unknown_path_404(self, base):
        status, _, _ = fetch(base, "/no/such/path")
        assert status == 404

    def test_wrong_method_405(self, base):
        status, headers, _ = fetch(base, "/api/query", method="GET")
        assert status == 405
        assert "POST" in headers.get("Allow", "")

    def test_head_request_has_no_body(self, base):
        status, headers, body = fetch(base, "/", method="HEAD")
        assert status == 200
        assert body == b""
        assert int(headers["Content-Length"]) > 0


class TestRawArtifacts:
    def test_source_xml(self, base):
        status, headers, body = fetch(base, "/data/cmu.xml")
        assert status == 200
        assert headers["Content-Type"].startswith("application/xml")
        assert b"<cmu>" in body or b"<cmu " in body

    def test_source_xsd(self, base):
        status, _, body = fetch(base, "/data/cmu.xsd")
        assert status == 200
        assert b"xs:schema" in body

    def test_unknown_source_404(self, base):
        for path in ("/data/nope.xml", "/data/nope.xsd"):
            status, _, _ = fetch(base, path)
            assert status == 404

    def test_bundles_are_valid_zips(self, base, paper_testbed):
        for name in ("thalia_catalogs.zip", "thalia_benchmark_queries.zip",
                     "thalia_sample_solutions.zip"):
            status, headers, body = fetch(base, f"/downloads/{name}")
            assert status == 200
            assert headers["Content-Type"] == "application/zip"
            with zipfile.ZipFile(BytesIO(body)) as archive:
                assert archive.namelist()

    def test_bundle_not_gzip_encoded(self, base):
        _, headers, _ = fetch(base, "/downloads/thalia_catalogs.zip",
                              headers={"Accept-Encoding": "gzip"})
        assert "Content-Encoding" not in headers

    def test_unknown_bundle_404(self, base):
        status, _, _ = fetch(base, "/downloads/evil.zip")
        assert status == 404


class TestConditionalGet:
    def test_etag_present_and_stable(self, base):
        _, first, _ = fetch(base, "/")
        _, second, _ = fetch(base, "/")
        assert first["ETag"] == second["ETag"]
        assert first["ETag"].startswith('"')

    def test_if_none_match_304(self, base):
        _, headers, _ = fetch(base, "/")
        status, headers304, body = fetch(
            base, "/", headers={"If-None-Match": headers["ETag"]})
        assert status == 304
        assert body == b""
        assert headers304["ETag"] == headers["ETag"]

    def test_stale_etag_refetches(self, base):
        status, _, body = fetch(base, "/",
                                headers={"If-None-Match": '"stale"'})
        assert status == 200
        assert body

    def test_etag_changes_after_upload(self, base):
        _, before, _ = fetch(base, "/honor-roll")
        status, _, _ = post_json(base, "/api/scores", {
            "submitter": "etag-test",
            "card": make_card_dict("EtagSystem", 2)})
        assert status == 201
        _, after, _ = fetch(base, "/honor-roll")
        assert after["ETag"] != before["ETag"]


class TestGzip:
    def test_gzip_round_trips(self, base):
        _, identity_headers, identity = fetch(base, "/api/queries")
        _, headers, compressed = fetch(base, "/api/queries",
                                       headers={"Accept-Encoding": "gzip"})
        assert headers["Content-Encoding"] == "gzip"
        assert gzip.decompress(compressed) == identity
        assert len(compressed) < len(identity)
        assert headers["ETag"] == identity_headers["ETag"]


class TestApi:
    def test_queries_listing(self, base):
        status, _, body = fetch(base, "/api/queries")
        payload = json.loads(body)
        assert status == 200
        assert [q["number"] for q in payload] == list(range(1, 13))
        assert all(q["xquery"] for q in payload)

    def test_single_query(self, base):
        status, _, body = fetch(base, "/api/queries/4")
        assert status == 200
        assert json.loads(body)["number"] == 4

    def test_unknown_query_404(self, base):
        assert fetch(base, "/api/queries/13")[0] == 404
        assert fetch(base, "/api/queries/zero")[0] == 404

    def test_sources_listing(self, base, paper_testbed):
        status, _, body = fetch(base, "/api/sources")
        payload = json.loads(body)
        assert status == 200
        assert {s["slug"] for s in payload} == set(paper_testbed.slugs)

    def test_healthz(self, base, paper_testbed):
        status, _, body = fetch(base, "/healthz")
        payload = json.loads(body)
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["sources"] == len(paper_testbed)

    def test_run_query(self, base):
        status, _, body = post_json(base, "/api/query", {
            "xquery": 'FOR $c IN doc("cmu.xml")/cmu/Course '
                      'WHERE $c/Lecturer = "Ailamaki" RETURN $c',
            "source": "cmu"})
        payload = json.loads(body)
        assert status == 200
        assert payload["count"] == len(payload["items"]) >= 1
        assert all("<Course" in item for item in payload["items"])

    def test_run_query_all_sources(self, base):
        status, _, body = post_json(base, "/api/query", {
            "xquery": 'FOR $c IN doc("brown.xml")/brown/Course '
                      'RETURN $c/CourseNum'})
        assert status == 200
        assert json.loads(body)["count"] >= 1

    def test_run_query_syntax_error_400(self, base):
        status, _, body = post_json(base, "/api/query",
                                    {"xquery": "FOR $ WHERE"})
        assert status == 400
        assert "error" in json.loads(body)

    def test_run_query_too_deeply_nested_400(self, base):
        status, _, body = post_json(base, "/api/query",
                                    {"xquery": "(" * 1000 + "1" + ")" * 1000})
        payload = json.loads(body)
        assert status == 400
        assert "nested deeper than" in payload["error"]
        assert payload["line"] == 1

    def test_run_query_unknown_source_404(self, base):
        status, _, _ = post_json(base, "/api/query",
                                 {"xquery": "1", "source": "nope"})
        assert status == 404

    def test_run_query_non_json_400(self, base):
        status, _, _ = fetch(base, "/api/query", data=b"not json")
        assert status == 400


class TestBadContentLength:
    @pytest.mark.parametrize("declared", ["abc", "-1"])
    def test_answers_400_and_closes(self, server, declared):
        with socket.create_connection((server.host, server.port),
                                      timeout=5) as sock:
            sock.sendall(f"POST /api/query HTTP/1.1\r\nHost: t\r\n"
                         f"Content-Length: {declared}\r\n\r\n".encode())
            received = b""
            while chunk := sock.recv(65536):
                received += chunk
        head, _, body = received.partition(b"\r\n\r\n")
        assert head.split(b"\r\n")[0].split()[1:2] == [b"400"]
        assert b"Connection: close" in head
        assert "Content-Length" in json.loads(body)["error"]


def read_response(reader, head_only=False):
    """(status, lower-cased headers, body) of one response off *reader*."""
    status = int(reader.readline().split()[1])
    headers = {}
    while (line := reader.readline()) not in (b"\r\n", b""):
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    length = 0 if head_only else int(headers.get("content-length", 0))
    return status, headers, reader.read(length)


@contextlib.contextmanager
def connect(server, timeout=5):
    """A raw socket to *server* and a binary reader over it."""
    with socket.create_connection((server.host, server.port),
                                  timeout=timeout) as sock, \
            sock.makefile("rb") as reader:
        yield sock, reader


def closed_by_server(sock):
    """Whether the server closed *sock*: EOF, or a reset when request
    bytes the server never read were still queued at its end."""
    try:
        return sock.recv(1024) == b""
    except ConnectionResetError:
        return True


def raw_request(method, path, body=b"", extra="", length=None):
    """One HTTP/1.1 request; *length* overrides the declared body size."""
    length = len(body) if length is None else length
    return (f"{method} {path} HTTP/1.1\r\nHost: t\r\n{extra}"
            f"Content-Length: {length}\r\n\r\n").encode() + body


EXPECT = "Expect: 100-continue\r\n"
QUERY_BODY = json.dumps({"xquery": 'FOR $c IN doc("cmu.xml")/cmu/Course '
                                   'RETURN $c', "source": "cmu"}).encode()


class TestFraming:
    """The transport's own answers to requests it will not serve, and
    HTTP/1.1 connection reuse, over raw sockets."""

    @pytest.mark.parametrize("payload,statuses", [
        (b"GARBAGE\r\n\r\n", {400}),
        (b"GET / HTTP/1.1\r\nX-Long: " + b"a" * 9000 + b"\r\n\r\n",
         {400, 431}),
        (b"GET / HTTP/1.1\r\n" + b"X-Many: 1\r\n" * 101 + b"\r\n",
         {400, 431}),
        # Over the body cap: refused before any body is sent, so no
        # thread waits for one.
        (raw_request("POST", "/api/scores", length=MAX_BODY + 1), {413}),
    ], ids=["bad-request-line", "long-header-line", "too-many-headers",
            "body-over-cap"])
    def test_answers_error_and_closes(self, server, payload, statuses):
        with connect(server) as (sock, reader):
            sock.sendall(payload)
            status, headers, body = read_response(reader)
            assert status in statuses
            assert headers.get("connection") == "close"
            assert "error" in json.loads(body)
            assert closed_by_server(sock)

    def test_chunked_request_refused_before_its_body(self, server):
        chunked = (b"POST /api/query HTTP/1.1\r\nHost: t\r\n"
                   b"Transfer-Encoding: chunked\r\n\r\n"
                   + b"%x\r\n" % len(QUERY_BODY) + QUERY_BODY
                   + b"\r\n0\r\n\r\n")
        with connect(server) as (sock, reader):
            sock.sendall(chunked)
            status, headers, body = read_response(reader)
            assert status == 501
            assert headers.get("connection") == "close"
            assert "Transfer-Encoding" in json.loads(body)["error"]
            # No chunk-size line is ever read as a second request.
            assert closed_by_server(sock)

    def test_keep_alive_serves_requests_in_turn_and_pipelined(self, server):
        with connect(server) as (sock, reader):
            sock.sendall(raw_request("GET", "/healthz"))
            assert read_response(reader)[0] == 200
            sock.sendall(raw_request("POST", "/api/query", QUERY_BODY))
            status, headers, body = read_response(reader)
            assert status == 200 and json.loads(body)["count"] >= 1
            assert "connection" not in headers
            sock.sendall(raw_request("GET", "/healthz")
                         + raw_request("GET", "/api/queries"))
            assert read_response(reader)[0] == 200
            assert len(json.loads(read_response(reader)[2])) == 12

    @pytest.mark.parametrize("version,extra", [
        ("HTTP/1.1", "Connection: close\r\n"), ("HTTP/1.0", "")],
        ids=["connection-close", "http-1.0"])
    def test_closes_after_one_answer(self, server, version, extra):
        with connect(server) as (sock, reader):
            sock.sendall(f"GET /healthz {version}\r\n{extra}\r\n".encode())
            assert read_response(reader)[0] == 200
            assert closed_by_server(sock)

    def test_head_carries_get_length_and_no_body(self, server):
        with connect(server) as (sock, reader):
            sock.sendall(raw_request("HEAD", "/") + raw_request("GET", "/"))
            status, head, _ = read_response(reader, head_only=True)
            assert status == 200
            # Had HEAD carried a body, this status line would be page bytes.
            status, _, body = read_response(reader)
            assert status == 200
            assert int(head["content-length"]) == len(body) > 0

    def test_expect_continue_before_the_body(self, server):
        with connect(server) as (sock, reader):
            sock.sendall(raw_request("POST", "/api/query", extra=EXPECT,
                                     length=len(QUERY_BODY)))
            assert read_response(reader, head_only=True)[0] == 100
            sock.sendall(QUERY_BODY)
            status, _, body = read_response(reader)
            assert status == 200 and json.loads(body)["count"] >= 1

    def test_expect_continue_refused_over_the_cap(self, server):
        with connect(server) as (sock, reader):
            sock.sendall(raw_request("POST", "/api/scores", extra=EXPECT,
                                     length=MAX_BODY + 1))
            status, headers, _ = read_response(reader)
            assert status == 413 and headers["connection"] == "close"
            assert closed_by_server(sock)

    def test_debug_access_log_line_per_request(self, base, caplog):
        def logged():
            return [record.getMessage() for record in caplog.records
                    if "/api/sources" in record.getMessage()]

        with caplog.at_level(logging.DEBUG, logger="repro.server.app"):
            fetch(base, "/api/sources")
            deadline = time.monotonic() + 5    # logged after the answer
            while not logged() and time.monotonic() < deadline:
                time.sleep(0.01)
        assert len(logged()) == 1 and logged()[0].endswith(" 200")


class TestHostileClients:
    """Clients that hold a connection without finishing a request."""

    @pytest.mark.parametrize("mode", ["idle", "trickle"])
    def test_ninth_client_served_while_eight_hold_the_pool(
            self, paper_testbed, tmp_path, monkeypatch, mode):
        # Eight slow clients occupy every thread of the default pool; the
        # idle timeout (idle) or the header deadline (trickle) frees one.
        monkeypatch.setattr(app_module, "IDLE_TIMEOUT_S",
                            0.5 if mode == "idle" else 30.0)
        monkeypatch.setattr(app_module, "HEADER_DEADLINE_S", 0.5)
        app = ThaliaApp(testbed=paper_testbed,
                        store=HonorRollStore(tmp_path / "roll.jsonl"))
        done = threading.Event()
        with ThaliaServer(app, port=0) as running:
            slow = [socket.create_connection((running.host, running.port),
                                             timeout=10) for _ in range(8)]

            def trickle(sock):
                try:
                    sock.sendall(b"GET / HTTP/1.1\r\nX-Slow: ")
                    while not done.wait(0.1):
                        sock.sendall(b"x")
                except OSError:
                    pass                       # dropped by the server

            threads = [threading.Thread(target=trickle, args=(sock,))
                       for sock in slow if mode == "trickle"]
            for thread in threads:
                thread.start()
            try:
                started = time.monotonic()
                status, _, _ = fetch(running.url, "/healthz")
                assert status == 200
                assert time.monotonic() - started < 10
                for sock in slow:                # each was dropped unanswered
                    assert closed_by_server(sock)
            finally:
                done.set()
                for thread in threads:
                    thread.join(timeout=10)
                for sock in slow:
                    sock.close()

    def test_stop_returns_with_idle_keep_alive_client(self, paper_testbed,
                                                      tmp_path):
        app = ThaliaApp(testbed=paper_testbed,
                        store=HonorRollStore(tmp_path / "roll.jsonl"))
        server = ThaliaServer(app, port=0).start()
        with connect(server, timeout=10) as (sock, reader):
            sock.sendall(raw_request("GET", "/healthz"))
            assert read_response(reader)[0] == 200
            stopper = threading.Thread(target=server.stop)
            stopper.start()
            stopper.join(timeout=2)
            assert not stopper.is_alive(), "stop() waited on an idle client"
            assert closed_by_server(sock)
        stopper.join(timeout=30)


    def test_stop_returns_on_a_server_never_started(self, paper_testbed,
                                                    tmp_path):
        app = ThaliaApp(testbed=paper_testbed,
                        store=HonorRollStore(tmp_path / "roll.jsonl"))
        server = ThaliaServer(app, port=0)
        stopper = threading.Thread(target=server.stop, daemon=True)
        stopper.start()
        stopper.join(timeout=2)
        assert not stopper.is_alive(), "stop() waited for a loop never run"
        assert server.socket.fileno() == -1


class TestScoreUpload:
    def test_valid_upload_accepted(self, base):
        status, _, body = post_json(base, "/api/scores", {
            "submitter": "alice", "date": "2004-08-01",
            "claimed": {"correct": 9, "complexity": 9},
            "card": make_card_dict("ValidSystem", 9)})
        payload = json.loads(body)
        assert status == 201
        assert payload["accepted"] and payload["correct"] == 9

    def test_inflated_claim_rejected_422(self, base):
        status, _, body = post_json(base, "/api/scores", {
            "submitter": "mallory",
            "claimed": {"correct": 12, "complexity": 0},
            "card": make_card_dict("InflatedSystem", 4)})
        payload = json.loads(body)
        assert status == 422
        assert payload["rejected"]
        assert any("re-scores to 4" in p for p in payload["problems"])

    def test_rejected_card_not_on_roll(self, base):
        _, _, body = fetch(base, "/api/honor-roll")
        assert "InflatedSystem" not in {e["system"]
                                        for e in json.loads(body)}

    def test_structurally_bogus_card_422(self, base):
        card = make_card_dict("BogusSystem", 3)
        card["outcomes"][5]["correct"] = True     # correct but unsupported
        status, _, body = post_json(base, "/api/scores",
                                    {"submitter": "x", "card": card})
        assert status == 422
        assert any("unsupported" in p
                   for p in json.loads(body)["problems"])

    def test_malformed_card_400(self, base):
        status, _, _ = post_json(base, "/api/scores",
                                 {"submitter": "x",
                                  "card": {"system": "NoOutcomes"}})
        assert status == 400

    def test_missing_submitter_400(self, base):
        status, _, _ = post_json(base, "/api/scores",
                                 {"card": make_card_dict("S", 1)})
        assert status == 400

    def test_non_integer_claims_400(self, base):
        status, _, _ = post_json(base, "/api/scores", {
            "submitter": "x", "claimed": {"correct": "twelve"},
            "card": make_card_dict("S", 1)})
        assert status == 400

    def test_honor_roll_ordering_live(self, base):
        post_json(base, "/api/scores", {
            "submitter": "bob",
            "card": make_card_dict("TopSystem", 12, effort="NONE")})
        _, _, body = fetch(base, "/api/honor-roll")
        payload = json.loads(body)
        assert payload[0]["system"] == "TopSystem"
        ranks = [e["rank"] for e in payload]
        assert ranks == sorted(ranks)
        _, _, page = fetch(base, "/honor-roll")
        assert page.index(b"TopSystem") < page.index(b"ValidSystem")


class TestConcurrency:
    PATHS = ("/", "/catalogs/cmu.html", "/data/cmu.xml", "/api/queries",
             "/downloads/thalia_catalogs.zip")

    def test_concurrent_requests_are_deterministic(self, paper_testbed,
                                                   tmp_path_factory):
        """N threads hammering a *cold* server observe one canonical body
        and ETag per path."""
        store = HonorRollStore(
            tmp_path_factory.mktemp("cold-scores") / "roll.jsonl")
        app = ThaliaApp(testbed=paper_testbed, store=store)
        with ThaliaServer(app, port=0, pool_size=8) as running:
            def grab(path):
                status, headers, body = fetch(running.url, path)
                assert status == 200
                return path, headers.get("ETag"), body

            with ThreadPoolExecutor(max_workers=16) as pool:
                results = list(pool.map(grab, list(self.PATHS) * 8))
        by_path = {}
        for path, etag, body in results:
            by_path.setdefault(path, []).append((etag, body))
        for path, observations in by_path.items():
            assert len(set(observations)) == 1, \
                f"{path} served {len(set(observations))} distinct bodies"

    def test_warm_requests_hit_cache_without_rebuilding(self, base, server):
        for _ in range(3):
            assert fetch(base, "/api/queries")[0] == 200
        misses_before = server.app.cache.stats()["misses"]
        for _ in range(5):
            assert fetch(base, "/api/queries")[0] == 200
        stats = server.app.cache.stats()
        assert stats["misses"] == misses_before    # warm GETs rebuild nothing
        _, _, body = fetch(base, "/api/stats")
        payload = json.loads(body)
        assert payload["totals"]["cache_hits"] > 0
        assert payload["content_cache"]["hit_rate"] > 0
        assert payload["endpoints"]["api_queries"]["cache_hit_rate"] > 0.5


class TestStatsEndpoint:
    def test_stats_shape(self, base):
        _, headers, body = fetch(base, "/api/stats")
        payload = json.loads(body)
        assert headers.get("Cache-Control") == "no-store"
        assert set(payload) >= {"uptime_s", "totals", "endpoints",
                                "content_cache", "honor_roll"}
        home = payload["endpoints"]["home"]
        assert home["requests"] > 0
        assert home["latency_ms"]["p95"] >= home["latency_ms"]["p50"] >= 0


class TestRestartPersistence:
    def test_honor_roll_survives_restart(self, paper_testbed, tmp_path):
        path = tmp_path / "roll.jsonl"
        app = ThaliaApp(testbed=paper_testbed, store=HonorRollStore(path))
        with ThaliaServer(app, port=0) as running:
            for system, correct, effort in (("Durable", 10, "NONE"),
                                            ("Modest", 4, "HIGH")):
                status, _, _ = post_json(running.url, "/api/scores", {
                    "submitter": "restart-test",
                    "card": make_card_dict(system, correct, effort=effort)})
                assert status == 201

        reborn = ThaliaApp(testbed=paper_testbed,
                           store=HonorRollStore(path))
        with ThaliaServer(reborn, port=0) as running:
            _, _, body = fetch(running.url, "/api/honor-roll")
            payload = json.loads(body)
            assert [e["system"] for e in payload] == ["Durable", "Modest"]
            _, _, page = fetch(running.url, "/honor-roll")
            assert page.index(b"Durable") < page.index(b"Modest")
