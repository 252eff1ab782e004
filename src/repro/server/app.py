"""The benchmark service: application object and threaded HTTP server.

:class:`ThaliaApp` is transport-independent — it turns a
:class:`~repro.server.router.Request` into a
:class:`~repro.server.router.Response`, applying the content cache,
conditional-GET (``ETag`` / ``If-None-Match`` → 304), transfer gzip and
per-endpoint metrics centrally so handlers stay tiny.  Tests can drive
it without sockets; :class:`ThaliaServer` puts it behind a bounded
HTTP/1.1 keep-alive loop with graceful shutdown for real traffic.
"""

from __future__ import annotations

import contextlib
import gzip
import io
import logging
import socket
import socketserver
import threading
import time
import traceback
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from http import HTTPStatus
from pathlib import Path
from urllib.parse import parse_qs

from ..cache import BoundedCache
from ..catalogs import Testbed, shared_testbed
from ..website import SiteGenerator
from ..xquery import (
    PlanCache,
    ResultCache,
    collect_statistics,
    like_cache_stats,
    statistics_cache_stats,
)
from .cache import CacheEntry, ContentCache, make_entry
from .handlers import build_router
from .metrics import ServerMetrics, percentile
from .router import Request, Response
from .store import HonorRollStore

logger = logging.getLogger(__name__)

DEFAULT_SCORES_FILE = "thalia_honor_roll.jsonl"

#: Bodies below this aren't worth a gzip round trip.
GZIP_MIN_BYTES = 256

#: Generated scenario packs kept in memory (least recently used evicted
#: past this); each pack's bundle bytes are held only here.
MAX_SCENARIO_PACKS = 8

#: Per-operator q-errors remembered for the estimate-error quantiles of
#: the ``/api/stats`` planner block (oldest shifted out past this).
MAX_PLANNER_ERRORS = 512

_COMPRESSIBLE_PREFIXES = ("text/", "application/json", "application/xml")


class ThaliaApp:
    """Everything the service needs, wired to one testbed build."""

    def __init__(self, testbed: Testbed | None = None,
                 store: HonorRollStore | None = None,
                 scores_path: str | Path = DEFAULT_SCORES_FILE,
                 query_workers: int = 4,
                 fleet=None) -> None:
        self.testbed = testbed if testbed is not None else shared_testbed()
        # Optional multiprocess worker fleet (repro.server.fleet): when
        # set, POST /api/query[/batch] result-cache misses execute on
        # worker processes with admission control instead of in this
        # process.  The app owns its lifecycle: close() drains and stops
        # the workers.
        self.fleet = fleet
        self.store = store if store is not None \
            else HonorRollStore(scores_path)
        # The static-site generator renders every HTML page; sharing the
        # durable store means the live honor roll and a generated site
        # agree byte-for-byte.
        self.site = SiteGenerator(self.testbed, honor_roll=self.store)
        self.cache = ContentCache()
        self.metrics = ServerMetrics()
        self.router = build_router()
        # Compiled-plan cache of every query path (handlers.compile_plan):
        # costed plans, compiled on first use — a fleet frontend, which
        # never executes, compiles only what /api/explain asks for.
        self.plans = PlanCache(maxsize=128)
        # Query-result cache for POST /api/query[/batch], with or without
        # a fleet: keyed by (query fingerprint, document-scope content
        # fingerprint), with single-flight coalescing of identical
        # in-flight queries.  The app keeps its own instance (not the
        # process-wide one) so the counters in /api/stats reflect
        # request traffic only.
        self.results = ResultCache(maxsize=256)
        self.query_workers = max(1, int(query_workers))
        self._query_pool: ThreadPoolExecutor | None = None
        self._query_pool_lock = threading.Lock()
        # Generated scenario packs (POST /api/scenarios), keyed by pack
        # fingerprint: {"bundle": CacheEntry, "summary": dict}.  Bounded,
        # so a chatty client cannot grow server memory without limit.
        self.scenario_packs: BoundedCache[str, dict] = BoundedCache(
            MAX_SCENARIO_PACKS,
            sizeof=lambda pack: len(pack["bundle"].body))
        self._scenario_lock = threading.Lock()
        self._scenario_stats = {
            "packs_generated": 0,
            "cases_generated": 0,
            "cases_served": 0,
            "tiers": {},
        }
        # Planner observability (POST /api/explain + the planner block
        # of /api/stats): request counters and a bounded window of
        # per-operator cardinality-estimate q-errors from analyzed runs.
        self._planner_lock = threading.Lock()
        self._planner_counters = {"explains": 0, "analyzed_explains": 0}
        self._planner_q_errors: deque[float] = deque(
            maxlen=MAX_PLANNER_ERRORS)

    @property
    def statistics(self):
        """Planner statistics over this testbed, collected lazily.

        Keyed by the testbed's content fingerprint through the
        module-wide statistics cache, so the first compile (a query
        miss or an explain) pays collection and every later one is a
        dict probe.
        """
        return collect_statistics(
            self.testbed.documents,
            fingerprint=self.testbed.content_fingerprint())

    def record_explain(self, analyzed: bool) -> None:
        """Count one answered ``/api/explain`` request, built or replayed."""
        with self._planner_lock:
            self._planner_counters["explains"] += 1
            if analyzed:
                self._planner_counters["analyzed_explains"] += 1

    def record_q_errors(self, plan) -> None:
        """Fold the per-operator q-errors of *plan*'s analyzed run into
        the stats window; a replayed explain carries no new run, so only
        a build calls this."""
        from ..xquery.cost import operator_q_errors

        if not plan.costed:
            return
        errors = operator_q_errors(plan.explain_data(analyze=True))
        with self._planner_lock:
            self._planner_q_errors.extend(errors)

    def planner_stats(self) -> dict:
        """The ``planner`` block of ``/api/stats``: statistics-cache
        counters, aggregated costed decisions over the plan cache, and
        estimate-error quantiles from analyzed explains."""
        decisions: dict[str, int] = {}
        costed_plans = 0
        for plan in self.plans.values():
            if getattr(plan, "costed", False):
                costed_plans += 1
                for name, count in plan.decisions.items():
                    decisions[name] = decisions.get(name, 0) + count
        with self._planner_lock:
            counters = dict(self._planner_counters)
            errors = sorted(self._planner_q_errors)
        quantiles = None
        if errors:
            quantiles = {"count": len(errors),
                         "p50": round(percentile(errors, 0.50), 3),
                         "p95": round(percentile(errors, 0.95), 3),
                         "max": round(errors[-1], 3)}
        return {
            "statistics_cache": statistics_cache_stats(),
            "like_cache": like_cache_stats(),
            **counters,
            "costed_plans": costed_plans,
            "costed_decisions": decisions,
            "estimate_errors": quantiles,
        }

    def generate_scenario_pack(self, seed: int, cases: int,
                               tier: str | None) -> dict:
        """Generate (or re-serve) a scenario pack; returns its summary.

        Generation is deterministic, so an identical request reproduces
        an identical fingerprint and the stored pack is simply reused —
        counters only move for packs this call actually built.  The
        synthesized queries are executed against the generated sources
        and checked against the derived gold before the pack is stored.
        """
        from ..scenarios import ScenarioSuite, build_pack

        suite = ScenarioSuite.generate(seed=seed, cases=cases, tier=tier)
        testbed = suite.build_testbed()
        problems = suite.check_query_agreement(testbed)
        if problems:  # pragma: no cover - generation invariant
            raise RuntimeError(
                f"generated pack failed self-check: {problems[0]}")
        pack = build_pack(suite, testbed)
        histogram = suite.tier_histogram()
        summary = {
            "fingerprint": pack.fingerprint,
            "seed": seed,
            "cases": len(suite.queries),
            "tier": tier,
            "tiers": histogram,
            "url": f"/api/scenarios/{pack.fingerprint}",
        }
        _, status = self.scenario_packs.lookup(
            pack.fingerprint, lambda: {
                "bundle": make_entry(pack.bundle_json().encode("utf-8"),
                                     "application/json"),
                "summary": summary,
            })
        if status == "miss":
            with self._scenario_lock:
                stats = self._scenario_stats
                stats["packs_generated"] += 1
                stats["cases_generated"] += len(suite.queries)
                for name, count in histogram.items():
                    stats["tiers"][name] = \
                        stats["tiers"].get(name, 0) + count
        return summary

    def scenario_pack_entry(self, fingerprint: str) -> dict | None:
        """The stored pack for *fingerprint*; counts the download."""
        entry = self.scenario_packs.find(fingerprint)
        if entry is not None:
            with self._scenario_lock:
                self._scenario_stats["cases_served"] += \
                    entry["summary"]["cases"]
        return entry

    def scenario_stats(self) -> dict:
        """The ``scenarios`` block of ``/api/stats``."""
        with self._scenario_lock:
            stats = dict(self._scenario_stats)
            stats["tiers"] = dict(stats["tiers"])
        stats["packs_held"] = len(self.scenario_packs)
        stats["cache"] = self.scenario_packs.stats()
        return stats

    @property
    def query_pool(self) -> ThreadPoolExecutor:
        """The batch-query executor, created on first batch request."""
        with self._query_pool_lock:
            if self._query_pool is None:
                self._query_pool = ThreadPoolExecutor(
                    max_workers=self.query_workers,
                    thread_name_prefix="thalia-query")
            return self._query_pool

    def close(self) -> None:
        """Release background resources (batch executor, worker fleet)."""
        with self._query_pool_lock:
            pool, self._query_pool = self._query_pool, None
        if pool is not None:
            pool.shutdown(wait=True)
        fleet, self.fleet = self.fleet, None
        if fleet is not None:
            fleet.close()

    # -- handler helpers -------------------------------------------------- #

    def cached_response(self, key, builder,
                        revision: int | None = None) -> Response:
        """Serve ``(body, content_type)`` from the content cache."""
        return self.entry_response(
            *self.cache.get_or_build(key, builder, revision=revision))

    @staticmethod
    def entry_response(entry: CacheEntry, was_hit: bool = True) -> Response:
        """A response replaying a cached body with its ETag."""
        response = Response(body=entry.body, content_type=entry.content_type,
                            etag=entry.etag, cache_hit=was_hit)
        response._entry = entry  # transfer-gzip reuse in _finalize
        return response

    def page_response(self, relpath: str) -> Response:
        """One site HTML page, rendered on first request and replayed
        from the content cache."""
        try:
            return self.cached_response(
                ("page", relpath),
                lambda: (self.site.render_page(relpath).encode("utf-8"),
                         "text/html; charset=utf-8"))
        except KeyError:
            return Response.of_json(
                {"error": f"no such page: /{relpath}"}, status=404)

    def honor_roll_response(self) -> Response:
        """The honor-roll page, one cache entry stamped with the store
        revision it shows: an upload makes it stale, so the next read
        rebuilds it in place; everything else replays it."""
        return self.cached_response(
            ("honor_roll", "html"),
            lambda: (self.site.render_page("honor_roll.html").encode("utf-8"),
                     "text/html; charset=utf-8"),
            revision=self.store.revision)

    def honor_roll_json_response(self) -> Response:

        def build():
            payload = [{
                "rank": position,
                "system": entry.card.system,
                "correct": entry.card.correct_count,
                "complexity": entry.card.complexity_score,
                "no_code": entry.card.no_code_count,
                "submitter": entry.submitter,
                "date": entry.date,
            } for position, entry in enumerate(self.store.ranked(), start=1)]
            return Response.of_json(payload).body, "application/json"

        return self.cached_response(("honor_roll", "json"), build,
                                    revision=self.store.revision)

    # -- dispatch ---------------------------------------------------------- #

    def handle(self, request: Request) -> Response:
        """Route one request; never raises."""
        started = time.perf_counter()
        # HEAD routes like GET; the transport layer suppresses the body.
        method = "GET" if request.method == "HEAD" else request.method
        route, params, allowed = self.router.match(method, request.path)
        if route is None:
            if allowed:
                response = Response.of_json(
                    {"error": f"method {request.method} not allowed"},
                    status=405,
                    headers={"Allow": ", ".join(sorted(allowed))})
            else:
                response = Response.of_json(
                    {"error": f"no such resource: {request.path}"},
                    status=404)
            name = "_unrouted"
        else:
            name = route.name
            request.params = params
            try:
                response = route.handler(self, request)
            except Exception:
                logger.error("unhandled error on %s %s\n%s", request.method,
                             request.path, traceback.format_exc())
                response = Response.of_json(
                    {"error": "internal server error"}, status=500)
        response = self._finalize(request, response)
        self.metrics.record(name, response.status,
                            time.perf_counter() - started,
                            response.cache_hit, len(response.body))
        return response

    def _finalize(self, request: Request, response: Response) -> Response:
        """Apply conditional-GET and transfer-gzip uniformly."""
        if response.etag:
            response.headers.setdefault("ETag", response.etag)
            if _etag_matches(request.headers.get("if-none-match", ""),
                             response.etag):
                return Response(status=304, body=b"",
                                content_type=response.content_type,
                                headers=dict(response.headers),
                                etag=response.etag,
                                cache_hit=response.cache_hit)
        if response.no_store:
            response.headers.setdefault("Cache-Control", "no-store")
        if self._wants_gzip(request) and response.compressible \
                and len(response.body) >= GZIP_MIN_BYTES \
                and response.content_type.startswith(_COMPRESSIBLE_PREFIXES):
            entry: CacheEntry | None = getattr(response, "_entry", None)
            response.body = entry.gzipped() if entry is not None \
                else gzip.compress(response.body, mtime=0)
            response.headers["Content-Encoding"] = "gzip"
            response.headers.setdefault("Vary", "Accept-Encoding")
        return response

    @staticmethod
    def _wants_gzip(request: Request) -> bool:
        accepted = request.headers.get("accept-encoding", "")
        return any(token.split(";")[0].strip() == "gzip"
                   for token in accepted.split(","))


def _etag_matches(if_none_match: str, etag: str) -> bool:
    if not if_none_match:
        return False
    if if_none_match.strip() == "*":
        return True
    candidates = {candidate.strip().removeprefix("W/")
                  for candidate in if_none_match.split(",")}
    return etag in candidates or etag.strip('"') in candidates


# --------------------------------------------------------------------------- #
# HTTP transport
# --------------------------------------------------------------------------- #

#: Caps on a request: bytes per line (CRLF included), header lines, body.
MAX_LINE = 8192
MAX_HEADERS = 100
MAX_BODY = 1 << 20
#: Seconds a kept-alive connection may idle, and a request may take from
#: its request line to the last byte of its headers and body.
IDLE_TIMEOUT_S = 15.0
HEADER_DEADLINE_S = 10.0


class _Refused(Exception):
    """``(status, message)``: the transport answers, then closes."""


class _DeadlineIO(socket.SocketIO):
    """Socket reads that time out at an absolute ``deadline``."""

    def readinto(self, buffer):
        if (left := self.deadline - time.monotonic()) <= 0:
            raise TimeoutError("client too slow")
        self._sock.settimeout(left)
        return super().readinto(buffer)


class ThaliaServer(socketserver.TCPServer):
    """*app* over HTTP/1.1 keep-alive on ``pool_size`` threads (``port=0``:
    an ephemeral port).  :meth:`stop` is graceful: the acceptor exits, idle
    keep-alive connections close, in-flight requests finish."""

    allow_reuse_address = True

    def __init__(self, app: ThaliaApp | None = None, host: str = "127.0.0.1",
                 port: int = 0, pool_size: int = 8) -> None:
        self.app = app if app is not None else ThaliaApp()
        super().__init__((host, port), None)
        self.host, self.port = self.server_address[:2]
        self.url = f"http://{self.host}:{self.port}"
        self._pool = ThreadPoolExecutor(max_workers=max(1, int(pool_size)),
                                        thread_name_prefix="thalia-http")
        self._conns: set[socket.socket] = set()   # open, for stop()
        self._lock = threading.Lock()
        self._closing = self._started = False

    def start(self) -> "ThaliaServer":
        """Serve on a daemon thread; returns self once accepting."""
        self._started = True
        threading.Thread(target=self.serve_forever, args=(0.1,),
                         name="thalia-acceptor", daemon=True).start()
        return self

    def stop(self) -> None:
        """Graceful shutdown; safe to call more than once, and on a server
        never started (``shutdown()`` would wait for a loop that never ran;
        a caller running ``serve_forever`` itself has returned from it)."""
        if self._closing:
            return
        self._closing = True
        if self._started:
            self.shutdown()                # acceptor loop exits
        with self._lock:     # wake idle reads; requests already sent stay
            for conn in self._conns:
                with contextlib.suppress(OSError):
                    conn.shutdown(socket.SHUT_RD)
        self._pool.shutdown(wait=True)     # in-flight requests finish
        self.server_close()
        self.app.close()                   # batch-query pool drains last

    def __enter__(self) -> "ThaliaServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def process_request(self, conn, client_address) -> None:
        self._conns.add(conn)    # stop() reads it once the acceptor exits
        self._pool.submit(self._serve, conn, client_address[0])

    def _serve(self, conn: socket.socket, peer: str) -> None:
        try:
            # Nagle would hold a 100 Continue or a big body's tail for an ACK.
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            rfile = io.BufferedReader(raw := _DeadlineIO(conn, "rb"))
            keep = True
            while keep:
                raw.deadline = time.monotonic() + IDLE_TIMEOUT_S
                line = rfile.readline(MAX_LINE + 1)
                if not line:
                    break
                raw.deadline = time.monotonic() + HEADER_DEADLINE_S
                try:
                    request, keep = _read_request(line, rfile, conn)
                except _Refused as refused:
                    keep, (status, error) = False, refused.args
                    response = Response.of_json({"error": error}, status)
                else:
                    response = self.app.handle(request)
                keep = keep and not self._closing
                conn.sendall(_encode(response, keep, line[:5] == b"HEAD "))
                if logger.isEnabledFor(logging.DEBUG):
                    logger.debug("%s %r %d", peer, line, response.status)
        except Exception:        # reset, timed out, gone mid-request...
            logger.debug("dropped %s", peer, exc_info=True)
        finally:
            with self._lock:
                self._conns.discard(conn)
            self.shutdown_request(conn)


def _read_request(line: bytes, rfile, conn) -> tuple[Request, bool]:
    """The request after its first *line*, and whether to keep alive."""
    parts = line.decode("latin-1").split()
    if len(line) > MAX_LINE or len(parts) != 3 \
            or parts[2] not in ("HTTP/1.0", "HTTP/1.1"):
        raise _Refused(400, f"bad request line: {line[:100]!r}")
    method, target, version = parts
    headers: dict[str, str] = {}
    for count in range(MAX_HEADERS + 1):
        line = rfile.readline(MAX_LINE + 1)
        if line in (b"\r\n", b"\n"):
            break
        if len(line) > MAX_LINE or count == MAX_HEADERS:
            raise _Refused(431, f"over {MAX_HEADERS} headers or a header "
                                f"line over {MAX_LINE} bytes")
        name, colon, value = line.decode("latin-1").partition(":")
        if not colon or not name or name != name.strip():
            raise _Refused(400, f"malformed header line: {line[:100]!r}")
        headers[name.lower()] = value.strip()
    if "transfer-encoding" in headers:     # framed by chunks we do not read
        raise _Refused(501, "Transfer-Encoding is not supported; "
                            "send a Content-Length body")
    declared = headers.get("content-length", "0")
    if not (declared.isascii() and declared.isdigit()):
        raise _Refused(400, f"invalid Content-Length: {declared!r}")
    if (length := int(declared)) > MAX_BODY:
        raise _Refused(413, f"request body over {MAX_BODY} bytes")
    if length and headers.get("expect", "").lower() == "100-continue":
        conn.sendall(b"HTTP/1.1 100 Continue\r\n\r\n")
    body = rfile.read(length) if length else b""
    if len(body) < length:
        raise ConnectionAbortedError("client closed mid-body")
    path, _, query = target.partition("?")
    query_args = {key: values[-1] for key, values
                  in parse_qs(query).items()} if query else {}
    keep = headers.get("connection", "").lower() != "close"
    return Request(method, path, query_args, headers, body), \
        keep and version == "HTTP/1.1"


def _encode(response: Response, keep: bool, head_only: bool) -> bytes:
    """One buffer: status line, headers, and body unless HEAD or 304."""
    status = response.status
    lines = [f"HTTP/1.1 {status} {HTTPStatus(status).phrase}",
             *(f"{key}: {value}" for key, value in response.headers.items())]
    if status != 304:
        lines += (f"Content-Type: {response.content_type}",
                  f"Content-Length: {len(response.body)}")
    if not keep:
        lines.append("Connection: close")
    head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
    return head if head_only or status == 304 else head + response.body
