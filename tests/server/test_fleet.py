"""The multiprocess worker fleet: routing, caching, admission, lifecycle.

Synchronization is event-based throughout, following
``tests/test_concurrency_stress.py``: workers park on a cross-process
``(ready, go)`` gate, so a test *proves* a task reached a worker by
acquiring ``ready`` — no sleeps, no wall-clock thresholds.  On a loaded
box the tests just take longer; they cannot spuriously break.
"""

import json
import multiprocessing
import os
import signal
import threading

import pytest

from repro.core import QUERIES
from repro.server import (
    FleetClosed,
    FleetSaturated,
    ThaliaApp,
    WorkerFleet,
)
from repro.server.handlers import _run_one_query, render_query_body
from repro.server.router import Request

_METHODS = multiprocessing.get_all_start_methods()
CTX = multiprocessing.get_context("fork" if "fork" in _METHODS else "spawn")

GATED = {"_fleet_test_gate": True}

CMU_QUERY = {"xquery": 'FOR $c IN doc("cmu.xml")/cmu/Course RETURN $c',
             "source": "cmu"}


def _gate():
    """A cross-process (ready, go) rendezvous for gated fleet tasks.

    Both halves are semaphores: ``ready`` counts deliveries, ``go`` is a
    turnstile (workers ``acquire`` then immediately ``release``) opened
    with ``go.release()``.  An ``mp.Event`` would deadlock the kill
    tests — SIGKILLing a worker parked in ``Event.wait()`` strands the
    event's sleeper accounting and the next ``set()`` never returns.
    """
    return CTX.Semaphore(0), CTX.Semaphore(0)


def _normalized(body_bytes: bytes) -> str:
    """Canonical JSON with the volatile wall-clock field removed.

    ``plan.exec_ns`` is the one legitimately nondeterministic field in a
    query response (each *computing* process measures its own run);
    everything else must match byte-for-byte.
    """
    payload = json.loads(body_bytes)
    payload.get("plan", {}).pop("exec_ns", None)
    return json.dumps(payload, indent=2, sort_keys=True)


class TestFleetExecution:
    def test_responses_byte_identical_to_single_process(self, testbed):
        single = ThaliaApp(testbed=testbed)
        payloads = [{"xquery": QUERIES[0].xquery},
                    {"xquery": 'FOR $c IN doc("cmu.xml")/cmu/Course '
                               'RETURN $c', "source": "cmu"}]
        with WorkerFleet(testbed, workers=2) as fleet:
            for payload in payloads:
                # Cold and warm responses: the cache progression
                # (cached: false, then true) must match single-process
                # serving exactly, not just the result items.
                for _round in range(2):
                    body, status, rendered = fleet.execute(
                        payload, render=True)
                    expected_body, expected_status = _run_one_query(
                        single, payload)
                    expected = render_query_body(expected_body,
                                                 expected_status)
                    assert status == expected_status == 200
                    assert _normalized(rendered) == _normalized(expected)
        single.close()

    def test_errors_and_batches_match_single_process(self, testbed):
        single = ThaliaApp(testbed=testbed)
        bad = [{"xquery": "FOR $x IN ("},            # syntax error
               {"xquery": QUERIES[0].xquery, "source": "nope"},
               {"not_xquery": True}]
        with WorkerFleet(testbed, workers=2) as fleet:
            outcomes = fleet.execute_many(
                bad + [{"xquery": QUERIES[2].xquery}])
            expected = [_run_one_query(single, payload)
                        for payload in bad + [{"xquery": QUERIES[2].xquery}]]
            assert [status for _, status in outcomes] \
                == [status for _, status in expected] == [400, 404, 400, 200]
            assert outcomes[-1][0]["items"] == expected[-1][0]["items"]
        single.close()

    def test_twelve_singly_then_batched_match_single_process(
            self, testbed):
        """Every body, ``cached`` included, matches one process.

        The batch spreads the twelve over both workers by load, so a
        repeat often lands on a worker that never ran it; only the
        shared result tier lets that worker answer ``cached: true``.
        """
        single = ThaliaApp(testbed=testbed)
        payloads = [{"xquery": query.xquery} for query in QUERIES]

        def rendered(outcome) -> str:
            return _normalized(render_query_body(*outcome))

        with WorkerFleet(testbed, workers=2) as fleet:
            for payload in payloads:
                body, status, _ = fleet.execute(payload)
                assert rendered((body, status)) \
                    == rendered(_run_one_query(single, payload))
            outcomes = fleet.execute_many(payloads)
            assert [rendered(outcome) for outcome in outcomes] \
                == [rendered(_run_one_query(single, payload))
                    for payload in payloads]
        single.close()

    def test_test_gate_key_is_inert_without_a_gate(self, testbed,
                                                   tmp_path):
        """``_fleet_test_gate`` in a client payload is just an unknown
        field: a fleet built without ``_gate`` answers the query."""
        payload = {"xquery": CMU_QUERY["xquery"], **GATED}

        def post(app) -> tuple[int, str]:
            response = app.handle(Request(
                method="POST", path="/api/query",
                headers={"content-type": "application/json"},
                body=json.dumps(payload).encode("utf-8")))
            return response.status, _normalized(response.body)

        single = ThaliaApp(testbed=testbed,
                           scores_path=tmp_path / "single.jsonl")
        served = ThaliaApp(testbed=testbed,
                           scores_path=tmp_path / "fleet.jsonl",
                           fleet=WorkerFleet(testbed, workers=2))
        try:
            expected = post(single)
            assert expected[0] == 200
            assert post(served) == expected
        finally:
            served.close()
            single.close()

    def test_sharded_requests_stick_to_one_worker(self, testbed):
        with WorkerFleet(testbed, workers=2) as fleet:
            payload = dict(CMU_QUERY)
            for _ in range(3):
                _body, status, _ = fleet.execute(payload)
                assert status == 200
            served = sorted(row["served"]
                            for row in fleet.stats()["per_worker"])
            assert served == [0, 3]
            home = fleet._shard("cmu")
            assert fleet._workers[home].served == 3

    def test_shared_cache_hit_across_workers(self, testbed):
        """A respawned (cold) worker replays its dead predecessor's work
        from the shared tier instead of recomputing."""
        with WorkerFleet(testbed, workers=2) as fleet:
            payload = dict(CMU_QUERY)
            body, status, _ = fleet.execute(payload)
            assert status == 200 and body["cached"] is False
            assert fleet.shared_cache.stats()["stores"] >= 1
            home = fleet._workers[fleet._shard("cmu")]
            os.kill(home.pid, signal.SIGKILL)
            # Whoever answers next — the respawned home worker or a
            # peer after a requeue — has a cold local cache and must
            # come back through the shared arena.
            body, status, _ = fleet.execute(payload)
            assert status == 200
            assert body["cached"] is True
            assert fleet.shared_cache.stats()["hits"] >= 1
            assert fleet.counters["failed"] == 0


class TestFleetAdmission:
    def test_saturated_fleet_sheds_with_retry_after(self, testbed):
        ready, go = _gate()
        fleet = WorkerFleet(testbed, workers=1, queue_depth=1,
                            _gate=(ready, go))
        try:
            results = []
            thread = threading.Thread(
                target=lambda: results.append(fleet.execute(GATED)))
            thread.start()
            ready.acquire()            # the only slot is now occupied
            with pytest.raises(FleetSaturated) as caught:
                fleet.execute(GATED)
            assert caught.value.retry_after_s >= 1
            stats = fleet.stats()
            assert stats["shed"] == 1
            assert stats["slo"]["query"]["shed"] == 1
            assert stats["slo"]["query"]["shed_rate"] == 0.5
            go.release()
            thread.join(timeout=30)
            assert results and results[0][1] == 200
        finally:
            go.release()
            fleet.close()

    def test_dead_worker_requests_are_requeued_not_failed(self, testbed):
        ready, go = _gate()
        fleet = WorkerFleet(testbed, workers=2, _gate=(ready, go))
        try:
            results = []
            thread = threading.Thread(
                target=lambda: results.append(fleet.execute(GATED)))
            thread.start()
            ready.acquire()            # task parked inside some worker
            victim = next(handle for handle in fleet._workers
                          if handle.outstanding)
            os.kill(victim.pid, signal.SIGKILL)
            ready.acquire()            # same task re-delivered elsewhere
            go.release()
            thread.join(timeout=30)
            assert results and results[0][1] == 200
            stats = fleet.stats()
            assert stats["respawns"] == 1
            assert stats["requeued"] == 1
            assert stats["failed"] == 0
            assert sum(row["cold_starts"]
                       for row in stats["per_worker"]) == 1
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
            outcome = fleet.execute(GATED)
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
            fleet.execute({"xquery": QUERIES[0].xquery})
        go.release()                       # release the drain
        closer.join(timeout=30)
        assert not closer.is_alive()
        for thread in threads:
            thread.join(timeout=30)
        assert [status for _body, status, _r in results] == [200] * inflight
        assert fleet.counters["failed"] == 0
        assert all(not handle.process.is_alive()
                   for handle in fleet._workers)

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

        def run():
            connection = http.client.HTTPConnection(server.host,
                                                    server.port,
                                                    timeout=60)
            connection.request("POST", "/api/query",
                               body=json.dumps(GATED),
                               headers={"Content-Type":
                                        "application/json"})
            response = connection.getresponse()
            response.read()
            with lock:
                statuses.append(response.status)
            connection.close()

        threads = [threading.Thread(target=run) for _ in range(inflight)]
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
            fleet.execute({"xquery": QUERIES[0].xquery})
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
            assert stats["shared_cache"]["stores"] >= 1
