"""The multiprocess worker fleet: routing, caching, admission, lifecycle.

Execution tests compare a ``--fleet 2`` :class:`ThaliaApp` with a
single-process one through :meth:`ThaliaApp.handle`, the served path.

Synchronization is event-based throughout, following
``tests/test_concurrency_stress.py``: workers park on a cross-process
``(ready, go)`` gate, so a test *proves* a task reached a worker by
acquiring ``ready`` — no sleeps, no wall-clock thresholds.  On a loaded
box the tests just take longer; they cannot spuriously break.
"""

import itertools
import json
import multiprocessing
import os
import signal
import threading

import pytest

from repro.core import QUERIES
from repro.server import (
    FleetClosed,
    FleetQueryFailed,
    FleetSaturated,
    ThaliaApp,
    WorkerFleet,
)
from repro.server.router import Request

_METHODS = multiprocessing.get_all_start_methods()
CTX = multiprocessing.get_context("fork" if "fork" in _METHODS else "spawn")

CMU_QUERY = {"xquery": 'FOR $c IN doc("cmu.xml")/cmu/Course RETURN $c',
             "source": "cmu"}

SELF_JOIN = ('for $a in doc("cmu.xml")/cmu/Course, '
             '$b in doc("cmu.xml")/cmu/Course '
             'where $a/Lecturer = $b/Lecturer return $b/CourseNum')

#: Every kind of answer a query item can get, good and bad.
MIXED = [
    {"xquery": QUERIES[0].xquery},
    CMU_QUERY,
    {"xquery": "FOR $x IN ("},                          # syntax error
    {"xquery": QUERIES[0].xquery, "source": "nope"},    # unknown source
    {"not_xquery": True},                               # bad body
    ["not", "an", "object"],                            # bad body
    {"xquery": 'FOR $v IN doc("eth.xml")/eth/Vorlesung '
               "WHERE $v/Umfang > 10 RETURN $v"},       # runtime type error
]

_gate_ids = itertools.count()


def gated() -> dict:
    """A payload that parks in a gated fleet's worker.  Its ``xquery``
    is distinct per call, because identical queries coalesce in the
    frontend's result cache and would reach the fleet once."""
    return {"xquery": f"gated {next(_gate_ids)}", "_fleet_test_gate": True}


def _gate():
    """A cross-process (ready, go) rendezvous for gated fleet tasks.

    Both halves are semaphores: ``ready`` counts deliveries, ``go`` is a
    turnstile (workers ``acquire`` then immediately ``release``) opened
    with ``go.release()``.  An ``mp.Event`` would deadlock the kill
    tests — SIGKILLing a worker parked in ``Event.wait()`` strands the
    event's sleeper accounting and the next ``set()`` never returns.
    """
    return CTX.Semaphore(0), CTX.Semaphore(0)


def _post(app: ThaliaApp, path: str, payload) -> tuple[int, str]:
    response = app.handle(Request(
        method="POST", path=path,
        headers={"content-type": "application/json"},
        body=json.dumps(payload).encode("utf-8")))
    return response.status, _normalized(response.body)


def _normalized(body_bytes: bytes) -> str:
    """Canonical JSON with the volatile wall-clock field removed.

    ``plan.exec_ns`` is the one legitimately nondeterministic field in a
    query response (each *computing* process measures its own run);
    everything else, ``cached`` included, must match byte-for-byte.
    """
    payload = json.loads(body_bytes)
    answers = payload.get("results", [payload]) \
        if isinstance(payload, dict) else []
    for answer in answers:
        answer.get("plan", {}).pop("exec_ns", None)
    return json.dumps(payload, indent=2, sort_keys=True)


@pytest.fixture
def apps(testbed, tmp_path):
    """A single-process app and a ``--fleet 2`` app over one testbed."""
    single = ThaliaApp(testbed=testbed,
                       scores_path=tmp_path / "single.jsonl")
    served = ThaliaApp(testbed=testbed,
                       scores_path=tmp_path / "fleet.jsonl",
                       fleet=WorkerFleet(testbed, workers=2))
    yield single, served
    served.close()
    single.close()


class TestFleetExecution:
    def test_responses_byte_identical_to_single_process(self, apps):
        single, served = apps
        for payload in ({"xquery": QUERIES[0].xquery}, CMU_QUERY):
            # Cold and warm responses: the cache progression (cached:
            # false, then true) must match single-process serving, not
            # just the result items.
            for _round in range(2):
                expected = _post(single, "/api/query", payload)
                assert expected[0] == 200
                assert _post(served, "/api/query", payload) == expected

    def test_workers_run_the_costed_plan(self, apps):
        """A worker answers a self-join with one process's plan info
        (nodes visited, index lookups), and one process runs it as a
        costed hash join, so the worker does too."""
        single, served = apps
        payload = {"xquery": SELF_JOIN, "source": "cmu"}
        expected = _post(single, "/api/query", payload)
        assert expected[0] == 200
        assert _post(served, "/api/query", payload) == expected
        assert single.planner_stats()["costed_decisions"]["hash-joins"] \
            >= 1

    def test_errors_and_batches_match_single_process(self, apps):
        single, served = apps
        for _round in range(2):
            for payload in MIXED:
                assert _post(served, "/api/query", payload) \
                    == _post(single, "/api/query", payload)
            batch = {"queries": MIXED}
            expected = _post(single, "/api/query/batch", batch)
            assert _post(served, "/api/query/batch", batch) == expected
        statuses = [answer["status"]
                    for answer in json.loads(expected[1])["results"]]
        assert statuses == [200, 200, 400, 404, 400, 400, 400]
        assert served.fleet.stats()["failed"] == 0

    def test_twelve_singly_then_batched_match_single_process(self, apps):
        """Every body, ``cached`` included, matches one process, with
        the batch's repeats answered by the frontend."""
        single, served = apps
        payloads = [{"xquery": query.xquery} for query in QUERIES]
        for payload in payloads:
            assert _post(served, "/api/query", payload) \
                == _post(single, "/api/query", payload)
        batch = {"queries": payloads}
        assert _post(served, "/api/query/batch", batch) \
            == _post(single, "/api/query/batch", batch)

    def test_repeats_never_reach_a_worker(self, apps):
        _single, served = apps
        for _round in range(2):
            for query in QUERIES:
                status, body = _post(served, "/api/query",
                                     {"xquery": query.xquery})
                assert status == 200
                assert json.loads(body)["cached"] is (_round == 1)
        assert served.fleet.stats()["dispatched"] == 12
        assert served.results.stats()["hits"] == 12

    def test_test_gate_key_is_inert_without_a_gate(self, apps):
        """``_fleet_test_gate`` in a client payload is just an unknown
        field: a fleet built without ``_gate`` answers the query."""
        single, served = apps
        payload = {**CMU_QUERY, "_fleet_test_gate": True}
        expected = _post(single, "/api/query", payload)
        assert expected[0] == 200
        assert _post(served, "/api/query", payload) == expected

    def test_sharded_requests_stick_to_one_worker(self, testbed):
        with WorkerFleet(testbed, workers=2) as fleet:
            # Three distinct queries: the fleet itself caches nothing.
            for step in ("", "/CourseTitle", "/Units"):
                items, _plan = fleet.run({
                    "xquery": f"{CMU_QUERY['xquery']}{step}",
                    "source": "cmu"})
                assert items
            served = sorted(row["served"]
                            for row in fleet.stats()["per_worker"])
            assert served == [0, 3]
            home = fleet._shard("cmu")
            assert fleet._workers[home].served == 3

    def test_repeat_after_home_worker_dies_is_a_frontend_hit(self, apps):
        """The frontend holds the one result cache, so a worker's death
        loses no cached answer: the repeat never reaches the fleet."""
        _single, served = apps
        fleet = served.fleet
        status, body = _post(served, "/api/query", CMU_QUERY)
        assert status == 200 and json.loads(body)["cached"] is False
        dispatched = fleet.stats()["dispatched"]
        os.kill(fleet._workers[fleet._shard("cmu")].pid, signal.SIGKILL)
        status, body = _post(served, "/api/query", CMU_QUERY)
        assert status == 200 and json.loads(body)["cached"] is True
        assert fleet.stats()["dispatched"] == dispatched
        assert fleet.counters["failed"] == 0


class TestFleetAdmission:
    def test_saturated_fleet_sheds_with_retry_after(self, testbed):
        ready, go = _gate()
        fleet = WorkerFleet(testbed, workers=1, queue_depth=1,
                            _gate=(ready, go))
        app = ThaliaApp(testbed=testbed, fleet=fleet)
        try:
            results = []
            thread = threading.Thread(
                target=lambda: results.append(fleet.run(gated())))
            thread.start()
            ready.acquire()            # the only slot is now occupied
            with pytest.raises(FleetSaturated) as caught:
                fleet.run(gated())
            assert caught.value.retry_after_s >= 1
            response = app.handle(Request(
                method="POST", path="/api/query", headers={},
                body=json.dumps(gated()).encode("utf-8")))
            assert response.status == 429
            retry_after = json.loads(response.body)["retry_after"]
            assert response.headers["Retry-After"] == str(retry_after)
            stats = fleet.stats()
            assert stats["shed"] == 2
            assert stats["slo"]["query"]["shed"] == 2
            assert stats["slo"]["query"]["shed_rate"] == round(2 / 3, 4)
            go.release()
            thread.join(timeout=30)
            assert results == [((), {"gated": True})]
        finally:
            go.release()
            app.close()

    def test_dead_worker_requests_are_requeued_not_failed(self, testbed):
        ready, go = _gate()
        fleet = WorkerFleet(testbed, workers=2, _gate=(ready, go))
        try:
            results = []
            thread = threading.Thread(
                target=lambda: results.append(fleet.run(gated())))
            thread.start()
            ready.acquire()            # task parked inside some worker
            victim = next(handle for handle in fleet._workers
                          if handle.outstanding)
            os.kill(victim.pid, signal.SIGKILL)
            ready.acquire()            # same task re-delivered elsewhere
            go.release()
            thread.join(timeout=30)
            assert results == [((), {"gated": True})]
            stats = fleet.stats()
            assert stats["respawns"] == 1
            assert stats["requeued"] == 1
            assert stats["failed"] == 0
            assert sum(row["cold_starts"]
                       for row in stats["per_worker"]) == 1
        finally:
            go.release()
            fleet.close()

    def test_request_that_kills_two_workers_fails(self, testbed):
        """A request is requeued once: when its second worker dies too,
        it answers 500 instead of cycling respawns until its timeout."""
        ready, go = _gate()
        fleet = WorkerFleet(testbed, workers=2, _gate=(ready, go))
        try:
            errors = []

            def run():
                try:
                    fleet.run(gated())
                except FleetQueryFailed as exc:
                    errors.append(exc)

            thread = threading.Thread(target=run)
            thread.start()
            for _death in range(2):
                ready.acquire()        # parked inside some worker
                victim = next(handle for handle in fleet._workers
                              if handle.outstanding)
                os.kill(victim.pid, signal.SIGKILL)
            thread.join(timeout=30)
            assert not thread.is_alive()
            assert [error.status for error in errors] == [500]
            assert "died" in errors[0].body["error"]
            stats = fleet.stats()
            assert stats["requeued"] == 1
            assert stats["respawns"] == 2
            assert stats["failed"] == 1
            assert stats["completed"] == 0
        finally:
            go.release()
            fleet.close()


class TestFleetShutdown:
    def test_graceful_close_under_inflight_load(self, testbed):
        """Requests admitted before close() complete; requests after it
        are refused; close() never deadlocks.  Event-based end to end:
        ``ready`` proves delivery, ``draining`` proves refusal happens
        mid-drain (not after), ``go`` releases the drain."""
        # One gated request per worker: a parked worker can't drain its
        # pipe, so parking more than ``workers`` requests would leave the
        # extras undelivered and the ready-handshake below incomplete.
        inflight = 2
        ready, go = _gate()
        fleet = WorkerFleet(testbed, workers=2, queue_depth=inflight,
                            _gate=(ready, go))
        results = []
        lock = threading.Lock()

        def run():
            outcome = fleet.run(gated())
            with lock:
                results.append(outcome)

        threads = [threading.Thread(target=run) for _ in range(inflight)]
        for thread in threads:
            thread.start()
        for _ in range(inflight):
            ready.acquire()            # both parked inside workers
        closer = threading.Thread(target=fleet.close)
        closer.start()
        assert fleet.draining.wait(timeout=30)
        with pytest.raises(FleetClosed):
            fleet.run({"xquery": QUERIES[0].xquery})
        go.release()                       # release the drain
        closer.join(timeout=30)
        assert not closer.is_alive()
        for thread in threads:
            thread.join(timeout=30)
        assert results == [((), {"gated": True})] * inflight
        assert fleet.counters["failed"] == 0
        assert all(not handle.process.is_alive()
                   for handle in fleet._workers)

    def test_closed_fleet_answers_503(self, apps):
        _single, served = apps
        served.fleet.close()
        status, body = _post(served, "/api/query", CMU_QUERY)
        assert status == 503
        assert json.loads(body) == {"error": "service is shutting down"}

    def test_server_stop_drains_fleet_requests_over_http(self, testbed):
        """The HTTP acceptor + fleet drain together: gated requests
        accepted before stop() complete with 200, stop() returns, and
        the socket then refuses new connections."""
        import http.client

        from repro.server import ThaliaServer

        inflight = 2
        ready, go = _gate()
        fleet = WorkerFleet(testbed, workers=2, queue_depth=inflight,
                            _gate=(ready, go))
        app = ThaliaApp(testbed=testbed, fleet=fleet)
        server = ThaliaServer(app, port=0).start()
        statuses = []
        lock = threading.Lock()

        def run(payload):
            connection = http.client.HTTPConnection(server.host,
                                                    server.port,
                                                    timeout=60)
            connection.request("POST", "/api/query",
                               body=json.dumps(payload),
                               headers={"Content-Type":
                                        "application/json"})
            response = connection.getresponse()
            response.read()
            with lock:
                statuses.append(response.status)
            connection.close()

        threads = [threading.Thread(target=run, args=(gated(),))
                   for _ in range(inflight)]
        for thread in threads:
            thread.start()
        for _ in range(inflight):
            ready.acquire()            # both requests parked in workers
        stopper = threading.Thread(target=server.stop)
        stopper.start()
        go.release()                       # let the in-flight work finish
        stopper.join(timeout=60)
        assert not stopper.is_alive(), "server.stop() deadlocked"
        for thread in threads:
            thread.join(timeout=60)
        assert statuses == [200] * inflight
        with pytest.raises(OSError):
            probe = http.client.HTTPConnection(server.host, server.port,
                                               timeout=5)
            probe.request("GET", "/healthz")
            probe.getresponse()

    def test_stats_block_shape(self, testbed):
        with WorkerFleet(testbed, workers=2) as fleet:
            fleet.run({"xquery": QUERIES[0].xquery})
            stats = fleet.stats()
            assert stats["enabled"] is True
            assert stats["workers"] == 2
            for counter in ("dispatched", "completed", "shed",
                            "respawns", "requeued", "timeouts", "failed"):
                assert isinstance(stats[counter], int), counter
            row = stats["slo"]["query"]
            assert set(row["latency_ms"]) == {"p50", "p95", "p99"}
            assert "shed_rate" in row
            assert len(stats["per_worker"]) == 2
            for worker_row in stats["per_worker"]:
                assert isinstance(worker_row["cpu_s"], float)
                assert isinstance(worker_row["rss_kb"], int)
