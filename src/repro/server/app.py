"""The benchmark service: application object and threaded HTTP server.

:class:`ThaliaApp` is transport-independent — it turns a
:class:`~repro.server.router.Request` into a
:class:`~repro.server.router.Response`, applying the content cache,
conditional-GET (``ETag`` / ``If-None-Match`` → 304), transfer gzip and
per-endpoint metrics centrally so handlers stay tiny.  Tests can drive
it without sockets; :class:`ThaliaServer` puts it behind a bounded
worker-pool HTTP server with graceful shutdown for real traffic.
"""

from __future__ import annotations

import gzip
import logging
import os
import threading
import time
import traceback
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path
from urllib.parse import parse_qs, urlsplit

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

#: Where the committed perf baseline lives unless overridden
#: (``THALIA_PERF_BASELINE`` or the ``perf_baseline=`` app argument).
DEFAULT_PERF_BASELINE = "PERF_BASELINE.json"

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
                 perf_baseline: str | Path | None = None,
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
        # Last committed perf snapshot (see repro.perf): /api/stats links
        # its summary so operators can see which trajectory point the
        # running build is gated against.  Resolution order: explicit
        # argument, $THALIA_PERF_BASELINE, PERF_BASELINE.json in cwd.
        self.perf_baseline_path = Path(
            perf_baseline
            or os.environ.get("THALIA_PERF_BASELINE")
            or DEFAULT_PERF_BASELINE)
        self._perf_summary: tuple[float, dict] | None = None
        self._perf_summary_lock = threading.Lock()
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

    def perf_summary(self) -> dict:
        """Summary of the committed perf baseline for ``/api/stats``.

        Loaded lazily and memoized per file mtime, so the stats endpoint
        never re-parses an unchanged snapshot but does pick up a newly
        committed one without a restart.  A missing or invalid baseline
        is reported, not raised — stats must stay cheap and total.
        """
        from ..perf.schema import (
            KIND_SNAPSHOT,
            SchemaError,
            load_document,
            summarize_snapshot,
        )

        path = self.perf_baseline_path
        try:
            mtime = path.stat().st_mtime
        except OSError:
            return {"baseline": None,
                    "reason": f"no snapshot at {path}"}
        with self._perf_summary_lock:
            if self._perf_summary is not None \
                    and self._perf_summary[0] == mtime:
                return self._perf_summary[1]
        try:
            doc = load_document(path, expect_kind=KIND_SNAPSHOT)
            summary = {"baseline": str(path),
                       **summarize_snapshot(doc, path)}
        except SchemaError as exc:
            summary = {"baseline": str(path), "invalid": True,
                       "reason": str(exc)}
        with self._perf_summary_lock:
            self._perf_summary = (mtime, summary)
        return summary

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
        from ..xquery import q_error

        if not plan.costed:
            return
        errors: list[float] = []

        def walk(entry: dict) -> None:
            estimated = entry.get("estimated", {})
            actual = entry.get("actual")
            est_rows = estimated.get("est_rows")
            if est_rows is not None and actual is not None:
                errors.append(q_error(est_rows, actual["rows"]))
            for child in entry.get("children", ()):
                walk(child)

        walk(plan.explain_data(analyze=True)["root"])
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

class _HttpHandler(BaseHTTPRequestHandler):
    """Adapts ``http.server`` requests to :meth:`ThaliaApp.handle`."""

    server_version = "ThaliaServer/1.0"
    protocol_version = "HTTP/1.1"
    # Headers and body go out as separate writes; without TCP_NODELAY,
    # Nagle + delayed ACK stalls every keep-alive response by ~40ms.
    disable_nagle_algorithm = True

    def _dispatch(self, include_body: bool = True) -> None:
        parsed = urlsplit(self.path)
        declared = (self.headers.get("Content-Length") or "0").strip(" \t")
        if not (declared.isascii() and declared.isdigit()):
            # The body's extent is unknown, so the connection cannot be
            # reused: the Connection: close header makes the handler drop
            # it after this answer.
            self._send(Response.of_json(
                {"error": f"invalid Content-Length: {declared!r}"},
                status=400, headers={"Connection": "close"}), include_body)
            return
        length = int(declared)
        request = Request(
            method=self.command,
            path=parsed.path,
            query={key: values[-1] for key, values
                   in parse_qs(parsed.query).items()},
            headers={key.lower(): value for key, value
                     in self.headers.items()},
            body=self.rfile.read(length) if length else b"",
        )
        response = self.server.app.handle(request)  # type: ignore[attr-defined]
        self._send(response, include_body)

    def _send(self, response: Response, include_body: bool) -> None:
        self.send_response(response.status)
        for key, value in response.headers.items():
            self.send_header(key, value)
        if response.status != 304:
            self.send_header("Content-Type", response.content_type)
            self.send_header("Content-Length", str(len(response.body)))
        if include_body and response.status != 304 and response.body:
            self.end_headers()
            self.wfile.write(response.body)
        else:
            self.end_headers()

    def do_GET(self) -> None:            # noqa: N802 (http.server API)
        self._dispatch()

    def do_POST(self) -> None:           # noqa: N802
        self._dispatch()

    def do_HEAD(self) -> None:           # noqa: N802
        self._dispatch(include_body=False)

    def log_message(self, format: str, *args) -> None:
        logger.debug("%s %s", self.address_string(), format % args)


class PooledHTTPServer(HTTPServer):
    """An ``HTTPServer`` that answers requests on a bounded thread pool.

    ``ThreadingHTTPServer`` spawns one thread per connection — unbounded
    under heavy traffic.  Here the acceptor enqueues each connection on a
    fixed-size :class:`ThreadPoolExecutor`; excess connections queue
    instead of multiplying threads.
    """

    def __init__(self, address, handler_class, app: ThaliaApp,
                 pool_size: int = 8) -> None:
        super().__init__(address, handler_class)
        self.app = app
        self.pool_size = max(1, int(pool_size))
        self._pool = ThreadPoolExecutor(
            max_workers=self.pool_size, thread_name_prefix="thalia-http")

    def process_request(self, request, client_address) -> None:
        self._pool.submit(self._work, request, client_address)

    def _work(self, request, client_address) -> None:
        try:
            self.finish_request(request, client_address)
        except Exception:
            self.handle_error(request, client_address)
        finally:
            self.shutdown_request(request)

    def handle_error(self, request, client_address) -> None:
        logger.debug("connection error from %s\n%s", client_address,
                     traceback.format_exc())

    def drain(self, wait: bool = True) -> None:
        """Stop accepting pool work and (optionally) finish in-flight
        requests."""
        self._pool.shutdown(wait=wait)


class ThaliaServer:
    """Lifecycle wrapper: bind, serve (blocking or background), stop.

    ``port=0`` binds an ephemeral port (see :attr:`port` after
    :meth:`start`).  :meth:`stop` is graceful: the acceptor loop exits,
    in-flight requests finish on the worker pool, then the socket closes.
    """

    def __init__(self, app: ThaliaApp | None = None, host: str = "127.0.0.1",
                 port: int = 0, pool_size: int = 8) -> None:
        self.app = app if app is not None else ThaliaApp()
        self._server = PooledHTTPServer((host, port), _HttpHandler,
                                        app=self.app, pool_size=pool_size)
        self._thread: threading.Thread | None = None
        self._stopped = False

    @property
    def host(self) -> str:
        return self._server.server_address[0]

    @property
    def port(self) -> int:
        return self._server.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def serve_forever(self) -> None:
        """Blocking serve loop (the CLI's foreground mode)."""
        self._server.serve_forever(poll_interval=0.1)

    def start(self) -> "ThaliaServer":
        """Serve on a daemon thread; returns self once accepting."""
        self._thread = threading.Thread(target=self.serve_forever,
                                        name="thalia-acceptor", daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        """Graceful shutdown; safe to call more than once."""
        if self._stopped:
            return
        self._stopped = True
        self._server.shutdown()            # acceptor loop exits
        if self._thread is not None:
            self._thread.join(timeout=10)
        self._server.drain(wait=True)      # in-flight requests finish
        self._server.server_close()
        self.app.close()                   # batch-query pool drains last

    def __enter__(self) -> "ThaliaServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
