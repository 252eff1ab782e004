"""Multiprocess worker fleet: sharded query execution behind the service.

One Python process cannot push query execution past the GIL no matter
how many threads the server pool holds.  ``thalia serve --fleet N``
moves the execution of result-cache misses into N worker *processes*,
each holding its own compiled plans and lazily-built ``DocumentIndex``
over the same testbed, while the HTTP frontend keeps doing what it is
good at: routing, the content and result caches, metrics.

Design, end to end:

* **One result cache, in the frontend.** The frontend answers a repeat
  from its own :class:`~repro.xquery.results.ResultCache` without a
  round trip, exactly as one process does, so ``cached`` matches
  single-process serving by construction.  Only a miss reaches the
  fleet: :meth:`WorkerFleet.run` hands the query to a worker, which
  compiles and executes it through the same
  :func:`~repro.server.handlers.execute_query` as one process and sends
  back the value the frontend caches — or the exact error body, which
  is never cached.
* **Sharding.** Requests that name a source route to the worker keyed by
  ``sha256(scale, slug) % N`` — the same worker keeps answering the same
  document, so its plan cache and document index stay hot.  Unsharded
  (all-document) requests go to the least-loaded worker.  Under pressure
  a sharded request spills to the least-loaded worker with capacity
  rather than queueing behind its home shard.
* **Admission control.** Every worker has a bounded in-flight budget
  (``queue_depth``).  When no candidate worker has capacity the request
  is *shed* with :class:`FleetSaturated` — the handler answers ``429``
  with a ``Retry-After`` derived from observed latency — instead of
  queueing unboundedly and melting tail latency for everyone.
* **Lifecycle.** A monitor/dispatcher thread detects dead workers,
  re-dispatches their in-flight requests once to healthy peers (zero
  failed requests on a worker crash) and respawns them with a
  cold-start counter; a request whose second worker dies too fails with
  500 instead of killing workers until it times out.  ``close()``
  drains: new work is refused, in-flight work finishes, workers get a
  stop sentinel, stragglers are terminated.
"""

from __future__ import annotations

import hashlib
import itertools
import logging
import multiprocessing
import os
import pickle
import resource
import threading
import time
from multiprocessing.connection import wait as connection_wait

from ..xquery import PlanCache, XQueryError, collect_statistics
from .metrics import LatencyReservoir

logger = logging.getLogger(__name__)

#: Default bounded in-flight budget per worker (admission control).
DEFAULT_QUEUE_DEPTH = 32

#: Hard ceiling on one request's wall time before the fleet gives up.
REQUEST_TIMEOUT_S = 300.0

#: Dispatcher poll interval: response wait timeout doubling as the
#: worker liveness check period.
_POLL_S = 0.1

#: How long construction waits, over all initial workers, for their hello
#: (sent once a worker has its testbed and statistics), so every live
#: worker's ``stats()`` row reports CPU and RSS from the start.
HELLO_WAIT_S = 60.0


class FleetError(RuntimeError):
    """Base class for fleet dispatch failures."""


class FleetSaturated(FleetError):
    """Every candidate worker is at its in-flight budget; shed the load."""

    def __init__(self, retry_after_s: int) -> None:
        super().__init__("worker fleet saturated")
        self.retry_after_s = retry_after_s


class FleetClosed(FleetError):
    """The fleet is draining or closed; no new work is admitted."""


class FleetQueryFailed(FleetError):
    """A request answered with an error body instead of a value: the
    worker's answer to a query that failed, or the fleet's own 500/503
    when no worker could answer it."""

    def __init__(self, body: dict, status: int) -> None:
        super().__init__(body["error"])
        self.body = body
        self.status = status


def _process_meta(served: int) -> dict:
    """This worker's resource self-report, attached to every response."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    rss_kb = usage.ru_maxrss            # Linux: KiB, peak
    try:
        with open("/proc/self/statm", "rb") as handle:
            rss_kb = int(handle.read().split()[1]) \
                * (os.sysconf("SC_PAGE_SIZE") // 1024)
    except (OSError, ValueError, IndexError):
        pass
    return {
        "cpu_s": round(usage.ru_utime + usage.ru_stime, 4),
        "rss_kb": rss_kb,
        "served": served,
    }


def _worker_main(index: int, seed: int, scale: int, inherited_testbed,
                 task_conn, resp_conn, gate) -> None:
    """One worker process: recv task → execute → send result, forever.

    ``inherited_testbed`` is the frontend's live object under the fork
    start method (free); under spawn it is ``None`` and the worker
    rebuilds deterministically from ``(seed, scale)`` — builds are
    byte-identical across processes, so the worker answers over the
    same content the frontend's cache keys name.
    """
    from ..catalogs import shared_testbed
    from .handlers import _documents, execute_query, query_error

    dump_dir = os.environ.get("THALIA_FLEET_DUMP_DIR")
    if dump_dir:
        # Debug aid: `kill -USR1 <worker pid>` dumps the worker's stack.
        import faulthandler
        import signal as _signal
        try:
            faulthandler.register(
                _signal.SIGUSR1,
                file=open(os.path.join(dump_dir,
                                       f"fleet-worker-{os.getpid()}.dump"),
                          "w"))
        except (OSError, AttributeError, ValueError):
            pass

    testbed = inherited_testbed if inherited_testbed is not None \
        else shared_testbed(seed, scale=scale)
    plans = PlanCache(maxsize=128)
    # Collected once per worker (a fork may inherit the frontend's):
    # workers cost their plans against the same statistics as one
    # process, so they run the same plans.
    statistics = collect_statistics(
        testbed.documents, fingerprint=testbed.content_fingerprint())
    served = 0
    resp_conn.send(("hello", index, os.getpid(), _process_meta(served)))
    while True:
        try:
            message = task_conn.recv()
        except (EOFError, OSError):
            break
        kind = message[0]
        if kind == "stop":
            break
        rid = message[1]
        if kind == "gate":
            # Test-only rendezvous, sent only by a fleet built with a
            # (ready, go) gate: ``ready`` signals delivery, so tests can
            # prove a task reached a worker without sleeping, then the
            # worker parks until ``go`` opens.  ``go`` is a semaphore
            # turnstile rather than an mp.Event: a worker SIGKILLed while
            # parked in ``Event.wait()`` leaves the event's sleeper count
            # claiming a waiter that no longer exists, and the next
            # ``set()`` then blocks forever inside
            # ``Condition.notify_all()`` waiting for the dead process to
            # acknowledge its wakeup.  ``sem_wait`` keeps no such
            # accounting, so a killed waiter simply vanishes.
            ready, go = gate
            ready.release()
            go.acquire()
            go.release()            # pass the baton to the next waiter
            outcome = ("value", ((), {"gated": True}))
        else:
            # The frontend validated the payload and its source.
            payload = message[2]
            try:
                outcome = ("value", execute_query(
                    plans, statistics,
                    _documents(testbed, payload.get("source")),
                    payload["xquery"]))
            except XQueryError as exc:
                outcome = ("error", *query_error(exc))
            except Exception as exc:   # pragma: no cover - defensive
                outcome = ("error", {"error": f"worker failure: {exc}"},
                           500)
        served += 1
        try:
            resp_conn.send(("result", rid, outcome,
                            _process_meta(served)))
        except (BrokenPipeError, OSError):
            break


class _Pending:
    """One request awaiting its worker's answer.

    It is resolved exactly once, by whoever pops ``rid`` from the
    fleet's pending table: the answer, the timeout, the second worker
    death or the drain.  ``outcome`` is ``("value", value)`` or
    ``("error", body, status)``.
    """

    __slots__ = ("event", "payload", "endpoint", "kind", "rid", "outcome",
                 "requeued", "started")

    def __init__(self, payload, endpoint: str, kind: str, rid: int) -> None:
        self.event = threading.Event()
        self.payload = payload
        self.endpoint = endpoint
        self.kind = kind
        self.rid = rid
        self.outcome: tuple | None = None
        self.requeued = False
        self.started = time.perf_counter()

    def fail(self, error: str, status: int) -> None:
        """Resolve with an error body (caller popped it from pending)."""
        self.outcome = ("error", {"error": error}, status)
        self.event.set()


class _WorkerHandle:
    """Frontend-side bookkeeping for one worker slot."""

    __slots__ = ("index", "process", "task_conn", "resp_conn", "pid",
                 "outstanding", "served", "cold_starts", "meta")

    def __init__(self, index: int) -> None:
        self.index = index
        self.process = None
        self.task_conn = None
        self.resp_conn = None
        self.pid: int | None = None
        self.outstanding: set[int] = set()
        self.served = 0
        self.cold_starts = 0
        self.meta: dict = {}

    @property
    def inflight(self) -> int:
        return len(self.outstanding)

    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()


class WorkerFleet:
    """N worker processes, one dispatcher, SLO counters."""

    def __init__(self, testbed, workers: int = 2, *,
                 queue_depth: int = DEFAULT_QUEUE_DEPTH,
                 _gate=None) -> None:
        if workers < 1:
            raise ValueError("WorkerFleet needs at least one worker")
        self.testbed = testbed
        self.size = int(workers)
        self.queue_depth = max(1, int(queue_depth))
        methods = multiprocessing.get_all_start_methods()
        self.start_method = "fork" if "fork" in methods else "spawn"
        self._ctx = multiprocessing.get_context(self.start_method)
        self._gate = _gate

        self._lock = threading.Lock()
        self._drained = threading.Condition(self._lock)
        self._pending: dict[int, _Pending] = {}
        self._rids = itertools.count(1)
        self._closing = False
        self._closed = False
        #: Set the moment close() begins refusing new work — before the
        #: drain wait — so callers can synchronize on the drain phase.
        self.draining = threading.Event()
        self.counters = {
            "dispatched": 0, "completed": 0, "requeued": 0, "shed": 0,
            "respawns": 0, "timeouts": 0, "failed": 0,
        }
        self._latencies = LatencyReservoir(seed=1)
        self._endpoints: dict[str, dict] = {}

        self._workers = [_WorkerHandle(index) for index in range(self.size)]
        for handle in self._workers:
            self._spawn(handle, cold=False)
        self._await_hellos(time.monotonic() + HELLO_WAIT_S)
        self._dispatcher = threading.Thread(target=self._dispatch_loop,
                                            name="thalia-fleet-dispatch",
                                            daemon=True)
        self._dispatcher.start()

    # -- worker lifecycle -------------------------------------------------- #

    def _spawn(self, handle: _WorkerHandle, cold: bool) -> None:
        """(Re)start one worker slot.  Caller context: init or dispatcher."""
        task_r, task_w = self._ctx.Pipe(duplex=False)
        resp_r, resp_w = self._ctx.Pipe(duplex=False)
        inherited = self.testbed if self.start_method == "fork" else None
        process = self._ctx.Process(
            target=_worker_main,
            name=f"thalia-fleet-{handle.index}",
            args=(handle.index, self.testbed.seed, self.testbed.scale,
                  inherited, task_r, resp_w, self._gate),
            daemon=True)
        process.start()
        task_r.close()
        resp_w.close()
        handle.process = process
        handle.task_conn = task_w
        handle.resp_conn = resp_r
        handle.pid = process.pid
        if cold:
            handle.cold_starts += 1

    def _await_hellos(self, deadline: float) -> None:
        """Read each initial worker's hello, its first message, before the
        dispatcher starts reading.  A worker that is silent until
        *deadline* or dies first is left to the dispatcher and the
        liveness sweep."""
        for handle in self._workers:
            try:
                if handle.resp_conn.poll(max(0.0,
                                             deadline - time.monotonic())):
                    self._on_message(handle, handle.resp_conn.recv())
            except (EOFError, OSError, pickle.UnpicklingError):
                pass

    def _shard(self, slug: str) -> int:
        """Stable shard by ``(testbed scale, document)``."""
        digest = hashlib.sha256(
            f"{self.testbed.scale}:{slug}".encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big") % self.size

    # -- dispatch ---------------------------------------------------------- #

    def _candidates(self, payload) -> list[int]:
        """Worker preference order: home shard first, then least-loaded."""
        order: list[int] = []
        slug = payload.get("source") if isinstance(payload, dict) else None
        if isinstance(slug, str):
            order.append(self._shard(slug))
        by_load = sorted(range(self.size),
                         key=lambda i: (self._workers[i].inflight, i))
        order.extend(i for i in by_load if i not in order)
        return order

    def _retry_after_s(self) -> int:
        p50 = self._latencies.percentile(0.50)
        estimate = p50 * self.queue_depth if p50 else 1.0
        return int(min(30, max(1, round(estimate + 0.5))))

    def _endpoint_stats(self, endpoint: str) -> dict:
        stats = self._endpoints.get(endpoint)
        if stats is None:
            stats = {"requests": 0, "shed": 0,
                     "latencies": LatencyReservoir(
                         seed=len(self._endpoints) + 2)}
            self._endpoints[endpoint] = stats
        return stats

    def _admit(self, payload, endpoint: str, kind: str) -> _Pending:
        """Admission control + first dispatch.  Raises instead of queueing
        unboundedly."""
        with self._lock:
            if self._closing:
                raise FleetClosed("fleet is draining")
            stats = self._endpoint_stats(endpoint)
            target = None
            for index in self._candidates(payload):
                handle = self._workers[index]
                if handle.alive() and handle.inflight < self.queue_depth:
                    target = handle
                    break
            if target is None:
                self.counters["shed"] += 1
                stats["shed"] += 1
                raise FleetSaturated(self._retry_after_s())
            rid = next(self._rids)
            entry = _Pending(payload, endpoint, kind, rid)
            self._pending[rid] = entry
            target.outstanding.add(rid)
            self.counters["dispatched"] += 1
            stats["requests"] += 1
            self._send(target, entry, rid)
            return entry

    def _send(self, handle: _WorkerHandle, entry: _Pending,
              rid: int) -> None:
        """Put one task on a worker's pipe (caller holds the lock)."""
        message = (entry.kind, rid) if entry.kind == "gate" \
            else (entry.kind, rid, entry.payload)
        try:
            handle.task_conn.send(message)
        except (BrokenPipeError, OSError):
            # Dead worker: the dispatcher will requeue via outstanding.
            pass

    def _await(self, entry: _Pending) -> tuple:
        """Wait for *entry* until its deadline, then record its latency.

        A request still unanswered at the deadline fails with 500; its
        rid leaves the pending table, so a late answer is dropped.
        """
        deadline = entry.started + REQUEST_TIMEOUT_S
        if not entry.event.wait(max(0.0, deadline - time.perf_counter())):
            with self._lock:
                if self._pending.pop(entry.rid, None) is not None:
                    entry.fail("fleet request timed out", 500)
                    self.counters["timeouts"] += 1
                    self.counters["failed"] += 1
        elapsed = time.perf_counter() - entry.started
        with self._lock:
            self._latencies.add(elapsed)
            self._endpoint_stats(entry.endpoint)["latencies"].add(elapsed)
        return entry.outcome

    def run(self, payload: dict, endpoint: str = "query"):
        """Compute one validated query payload on a worker and return
        :func:`~repro.server.handlers.execute_query`'s value for it.

        Raises :class:`FleetQueryFailed` carrying the error body to
        answer, :class:`FleetSaturated` (shed; answer 429 +
        Retry-After) or :class:`FleetClosed` (draining; answer 503).
        """
        # The test gate exists only on fleets built with one; elsewhere
        # the key is just an unknown payload field.
        kind = "gate" if self._gate is not None \
            and payload.get("_fleet_test_gate") else "query"
        outcome = self._await(self._admit(payload, endpoint, kind))
        if outcome[0] == "error":
            raise FleetQueryFailed(outcome[1], outcome[2])
        return outcome[1]

    # -- dispatcher / monitor ---------------------------------------------- #

    def _dispatch_loop(self) -> None:
        while True:
            with self._lock:
                if self._closed:
                    return
                conns = {handle.resp_conn: handle
                         for handle in self._workers
                         if handle.resp_conn is not None
                         and not handle.resp_conn.closed}
            try:
                ready = connection_wait(list(conns), timeout=_POLL_S)
            except OSError:
                ready = []
            for conn in ready:
                handle = conns[conn]
                try:
                    while conn.poll():
                        self._on_message(handle, conn.recv())
                except (EOFError, OSError, pickle.UnpicklingError):
                    pass            # death handled by the liveness sweep
            self._sweep_dead()

    def _on_message(self, handle: _WorkerHandle, message) -> None:
        kind = message[0]
        if kind == "hello":
            with self._lock:
                handle.meta = message[3]
            return
        _kind, rid, outcome, meta = message
        with self._lock:
            handle.outstanding.discard(rid)
            handle.meta = meta
            handle.served += 1
            # None: the request timed out or was failed by the drain, and
            # this late answer is dropped.
            entry = self._pending.pop(rid, None)
            if entry is not None:
                entry.outcome = outcome
                self.counters["completed"] += 1
                entry.event.set()
            self._notify_if_drained()

    def _notify_if_drained(self) -> None:
        """Wake ``close()`` when the last in-flight request resolves.
        Caller holds the lock."""
        if not self._pending:
            self._drained.notify_all()

    def _sweep_dead(self) -> None:
        """Requeue a dead worker's in-flight work, then respawn it.

        Each request is requeued once.  When its second worker dies as
        well, the request itself is the likely killer (say, a cross
        product that runs out of memory), so it fails with 500 instead
        of respawning workers until its timeout.
        """
        with self._lock:
            if self._closing:
                return
            dead = [handle for handle in self._workers
                    if not handle.alive()]
            if not dead:
                return
            for handle in dead:
                orphaned = list(handle.outstanding)
                handle.outstanding.clear()
                logger.warning(
                    "fleet worker %d (pid %s) died with %d in-flight "
                    "request(s); respawning", handle.index, handle.pid,
                    len(orphaned))
                for conn in (handle.task_conn, handle.resp_conn):
                    try:
                        conn.close()
                    except OSError:
                        pass
                self._spawn(handle, cold=True)
                self.counters["respawns"] += 1
                for rid in orphaned:
                    entry = self._pending.get(rid)
                    if entry is None:
                        continue
                    if entry.requeued:
                        del self._pending[rid]
                        entry.fail("fleet worker died twice running this "
                                   "request", 500)
                        self.counters["failed"] += 1
                        continue
                    entry.requeued = True
                    # Re-dispatch to the least-loaded healthy worker.
                    # Capacity is allowed to overshoot here: finishing an
                    # already-admitted request beats strict budgets.
                    retarget = min(
                        (peer for peer in self._workers
                         if peer.alive()),
                        key=lambda peer: (peer.inflight, peer.index),
                        default=None)
                    if retarget is None:
                        retarget = handle      # freshly respawned
                    retarget.outstanding.add(rid)
                    self.counters["requeued"] += 1
                    self._send(retarget, entry, rid)

    # -- lifecycle --------------------------------------------------------- #

    def close(self, drain_timeout_s: float = 30.0) -> None:
        """Graceful shutdown: refuse new work, drain, stop workers."""
        with self._lock:
            if self._closed:
                return
            already_draining = self._closing
            self._closing = True
            self.draining.set()
            if not already_draining:
                deadline = time.monotonic() + drain_timeout_s
                while self._pending:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0 or not self._drained.wait(
                            timeout=remaining):
                        break
                # Anything still pending after the drain window fails
                # closed rather than hanging its caller.
                for entry in self._pending.values():
                    entry.fail("service is shutting down", 503)
                    self.counters["failed"] += 1
                self._pending.clear()
            self._closed = True
            workers = list(self._workers)
        if self._dispatcher.is_alive() \
                and threading.current_thread() is not self._dispatcher:
            self._dispatcher.join(timeout=5)
        for handle in workers:
            try:
                handle.task_conn.send(("stop",))
            except (BrokenPipeError, OSError, AttributeError):
                pass
        for handle in workers:
            if handle.process is not None:
                handle.process.join(timeout=5)
                if handle.process.is_alive():
                    handle.process.terminate()
                    handle.process.join(timeout=5)
            for conn in (handle.task_conn, handle.resp_conn):
                try:
                    if conn is not None:
                        conn.close()
                except OSError:
                    pass

    def __enter__(self) -> "WorkerFleet":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- observability ----------------------------------------------------- #

    def stats(self) -> dict:
        """The ``fleet`` block of ``/api/stats``: counters, the
        per-endpoint SLO table and per-worker CPU/RSS."""
        with self._lock:
            counters = dict(self.counters)
            slo = {}
            for endpoint, stats in sorted(self._endpoints.items()):
                admitted = stats["requests"]
                offered = admitted + stats["shed"]
                slo[endpoint] = {
                    "requests": admitted,
                    "shed": stats["shed"],
                    "shed_rate": round(stats["shed"] / offered, 4)
                    if offered else 0.0,
                    "latency_ms": stats["latencies"].quantiles_ms(),
                }
            per_worker = [{
                "index": handle.index,
                "pid": handle.pid,
                "alive": handle.alive(),
                "inflight": handle.inflight,
                "served": handle.served,
                "cold_starts": handle.cold_starts,
                "cpu_s": handle.meta.get("cpu_s"),
                "rss_kb": handle.meta.get("rss_kb"),
            } for handle in self._workers]
        return {
            "enabled": True,
            "workers": self.size,
            "start_method": self.start_method,
            "queue_depth": self.queue_depth,
            "draining": self._closing,
            **counters,
            "slo": slo,
            "per_worker": per_worker,
        }


__all__ = [
    "DEFAULT_QUEUE_DEPTH",
    "FleetClosed",
    "FleetError",
    "FleetQueryFailed",
    "FleetSaturated",
    "WorkerFleet",
]
