"""Endpoint handlers: the THALIA testbed as an HTTP API + site.

The route table (one handler per row; HTML pages reuse the static-site
renderers, so live and generated pages are byte-identical):

=======  ==================================  =================================
Method   Path                                Serves
=======  ==================================  =================================
GET      ``/``, ``/index.html``              home page
GET      ``/classification.html``            §3 heterogeneity classification
GET      ``/honor-roll``,                    live ranked honor roll
         ``/honor_roll.html``
GET      ``/catalogs/``, ``…/{slug}.html``   catalog listing / HTML snapshot
GET      ``/data/``, ``…/{slug}_xml.html``,  extracted-data browser
         ``…/{slug}_xsd.html``
GET      ``/data/{slug}.xml``, ``….xsd``     raw extracted XML / inferred XSD
GET      ``/benchmark/``,                    benchmark pages
         ``…/query{nn}.html``
GET      ``/downloads/{bundle}.zip``         the three zips (lazy, memoized)
GET      ``/api/queries[/{n}]``              benchmark query definitions
GET      ``/api/sources``                    source inventory
GET      ``/api/honor-roll``                 ranked roll as JSON
GET      ``/api/scenarios/{fingerprint}``    generated scenario pack as one
                                             JSON bundle (ETag/gzip cached)
GET      ``/api/stats``                      request/latency/cache metrics
GET      ``/healthz``                        liveness probe
POST     ``/api/explain``                    structured explain(-analyze)
                                             tree for an XQuery — costed
                                             plan, estimates, actuals
                                             (ETag/gzip cached)
POST     ``/api/query``                      run an XQuery against a source
                                             (result-cached, single-flight)
POST     ``/api/query/batch``                run up to MAX_BATCH_QUERIES
                                             queries concurrently
POST     ``/api/scenarios``                  generate a scenario pack
                                             (seed/cases/tier; validated
                                             before it is stored)
POST     ``/api/scores``                     upload a score card (re-scored
                                             server-side before acceptance)
=======  ==================================  =================================
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..core import QUERIES, query_short_name, validate_claims
from ..core.scoring import ScoreCard
from ..website.bundles import (
    CATALOGS_BUNDLE,
    QUERIES_BUNDLE,
    SOLUTIONS_BUNDLE,
    build_catalogs_bundle,
    build_queries_bundle,
    build_solutions_bundle,
)
from ..xmlmodel import XmlElement, serialize, serialize_pretty
from ..xquery import (
    DocumentResolver,
    Plan,
    PlanCache,
    Statistics,
    XQueryError,
    XQuerySyntaxError,
    query_fingerprint,
)
from .fleet import FleetClosed, FleetQueryFailed, FleetSaturated
from .router import Request, Response, Router

if TYPE_CHECKING:  # pragma: no cover
    from .app import ThaliaApp

XML_TYPE = "application/xml; charset=utf-8"

#: Upper bound on queries per POST /api/query/batch request.
MAX_BATCH_QUERIES = 64

#: Upper bound on cases per POST /api/scenarios request: each case
#: renders, extracts and gold-derives two sources inside the request.
MAX_SCENARIO_CASES = 32

SCENARIO_TIERS = ("easy", "medium", "hard")

_BUNDLE_BUILDERS = {
    CATALOGS_BUNDLE: build_catalogs_bundle,
    QUERIES_BUNDLE: build_queries_bundle,
    SOLUTIONS_BUNDLE: build_solutions_bundle,
}

#: Query text -> benchmark label, so /api/stats can name cached plans.
_BENCH_LABELS = {query.xquery: f"Q{query.number}" for query in QUERIES}


def build_router() -> Router:
    router = Router()

    # -- HTML pages (shared with the static site) ----------------------- #

    @router.get("/", name="home")
    @router.get("/index.html", name="home")
    def home(app: "ThaliaApp", request: Request) -> Response:
        return app.page_response("index.html")

    @router.get("/classification.html", name="classification")
    def classification(app: "ThaliaApp", request: Request) -> Response:
        return app.page_response("classification.html")

    @router.get("/honor-roll", name="honor_roll")
    @router.get("/honor_roll.html", name="honor_roll")
    def honor_roll(app: "ThaliaApp", request: Request) -> Response:
        return app.honor_roll_response()

    @router.get("/catalogs/", name="catalog_index")
    @router.get("/catalogs/index.html", name="catalog_index")
    def catalog_index(app: "ThaliaApp", request: Request) -> Response:
        return app.page_response("catalogs/index.html")

    @router.get("/catalogs/{page}.html", name="catalog_page")
    def catalog_page(app: "ThaliaApp", request: Request) -> Response:
        return app.page_response(f"catalogs/{request.params['page']}.html")

    @router.get("/data/", name="data_index")
    @router.get("/data/index.html", name="data_index")
    def data_index(app: "ThaliaApp", request: Request) -> Response:
        return app.page_response("data/index.html")

    @router.get("/data/{page}.html", name="data_page")
    def data_page(app: "ThaliaApp", request: Request) -> Response:
        return app.page_response(f"data/{request.params['page']}.html")

    @router.get("/benchmark/", name="benchmark_index")
    @router.get("/benchmark/index.html", name="benchmark_index")
    def benchmark_index(app: "ThaliaApp", request: Request) -> Response:
        return app.page_response("benchmark/index.html")

    @router.get("/benchmark/{page}.html", name="benchmark_page")
    def benchmark_page(app: "ThaliaApp", request: Request) -> Response:
        return app.page_response(f"benchmark/{request.params['page']}.html")

    # -- raw artifacts --------------------------------------------------- #

    @router.get("/data/{slug}.xml", name="source_xml")
    def source_xml(app: "ThaliaApp", request: Request) -> Response:
        slug = request.params["slug"]
        if slug not in app.testbed:
            return Response.of_json(
                {"error": f"no such source: {slug}"}, status=404)
        return app.cached_response(
            ("xml", slug),
            lambda: (serialize_pretty(
                app.testbed.source(slug).document).encode("utf-8"),
                XML_TYPE))

    @router.get("/data/{slug}.xsd", name="source_xsd")
    def source_xsd(app: "ThaliaApp", request: Request) -> Response:
        slug = request.params["slug"]
        if slug not in app.testbed:
            return Response.of_json(
                {"error": f"no such source: {slug}"}, status=404)
        return app.cached_response(
            ("xsd", slug),
            lambda: (serialize_pretty(
                app.testbed.source(slug).schema.to_xsd()).encode("utf-8"),
                XML_TYPE))

    @router.get("/downloads/{name}", name="bundle")
    def bundle(app: "ThaliaApp", request: Request) -> Response:
        name = request.params["name"]
        builder = _BUNDLE_BUILDERS.get(name)
        if builder is None:
            return Response.of_json(
                {"error": f"no such download: {name}"}, status=404)
        response = app.cached_response(
            ("bundle", name),
            lambda: (builder(app.testbed), "application/zip"))
        response.compressible = False   # zip entries are already deflated
        return response

    # -- JSON API -------------------------------------------------------- #

    @router.get("/api/queries", name="api_queries")
    def api_queries(app: "ThaliaApp", request: Request) -> Response:
        return app.cached_response(
            ("api", "queries"),
            lambda: (Response.of_json(
                [_query_payload(q) for q in QUERIES]).body,
                "application/json"))

    @router.get("/api/queries/{number}", name="api_query")
    def api_query(app: "ThaliaApp", request: Request) -> Response:
        number = request.params["number"]
        matches = [q for q in QUERIES
                   if number.isdigit() and q.number == int(number)]
        if not matches:
            return Response.of_json(
                {"error": f"no such benchmark query: {number}"}, status=404)
        return app.cached_response(
            ("api", f"query-{matches[0].number}"),
            lambda: (Response.of_json(_query_payload(matches[0])).body,
                     "application/json"))

    @router.get("/api/sources", name="api_sources")
    def api_sources(app: "ThaliaApp", request: Request) -> Response:
        def build() -> tuple[bytes, str]:
            payload = []
            for source in app.testbed:
                profile = source.profile
                payload.append({
                    "slug": source.slug,
                    "name": profile.name,
                    "country": profile.country,
                    "language": profile.language,
                    "records": source.stats.records,
                    "heterogeneities": list(profile.heterogeneities),
                })
            return Response.of_json(payload).body, "application/json"
        return app.cached_response(("api", "sources"), build)

    @router.get("/api/honor-roll", name="api_honor_roll")
    def api_honor_roll(app: "ThaliaApp", request: Request) -> Response:
        return app.honor_roll_json_response()

    @router.get("/api/scenarios/{fingerprint}", name="api_scenario_pack")
    def api_scenario_pack(app: "ThaliaApp", request: Request) -> Response:
        fingerprint = request.params["fingerprint"]
        entry = app.scenario_pack_entry(fingerprint)
        if entry is None:
            return Response.of_json(
                {"error": f"no such scenario pack: {fingerprint}"},
                status=404)
        # The pack store holds the bundle as a cache entry (ETag, gzip
        # memo), so it replays like any content-cache response.
        return app.entry_response(entry["bundle"])

    @router.get("/api/stats", name="api_stats")
    def api_stats(app: "ThaliaApp", request: Request) -> Response:
        payload = app.metrics.snapshot()
        payload["content_cache"] = app.cache.stats()
        payload["result_cache"] = app.results.stats()
        payload["honor_roll"] = {
            "systems": len(app.store),
            "submissions": app.store.revision,
            "revision": app.store.revision,
        }
        queries = []
        for plan in app.plans.values():
            entry = plan.stats_snapshot()
            entry["query"] = _BENCH_LABELS.get(plan.source, "ad-hoc")
            entry["rewrites"] = plan.rewrites
            queries.append(entry)
        queries.sort(key=lambda entry: (entry["query"] == "ad-hoc",
                                        len(entry["query"]),
                                        entry["query"]))
        payload["query_plans"] = {
            "cache": app.plans.stats(),
            "templates": app.plans.templates.stats(),
            "queries": queries,
        }
        indexes = {}
        for slug, document in app.testbed.documents.items():
            # Report only indexes that already exist — the stats endpoint
            # must observe, never force, index construction.
            if document.index_built:
                indexes[slug] = document.index().stats()
        payload["testbed"] = {
            "seed": app.testbed.seed,
            "scale": app.testbed.scale,
            "sources": len(app.testbed),
            "document_indexes": {
                "built": len(indexes),
                "per_document": indexes,
            },
        }
        payload["perf"] = app.perf_summary()
        payload["scenarios"] = app.scenario_stats()
        payload["planner"] = app.planner_stats()
        payload["fleet"] = app.fleet.stats() if app.fleet is not None \
            else {"enabled": False}
        return Response.of_json(payload, no_store=True)

    @router.get("/healthz", name="healthz")
    def healthz(app: "ThaliaApp", request: Request) -> Response:
        return Response.of_json({
            "status": "ok",
            "seed": app.testbed.seed,
            "scale": app.testbed.scale,
            "sources": len(app.testbed),
            "uptime_s": round(app.metrics.uptime_s, 3),
        }, no_store=True)

    # -- POST endpoints --------------------------------------------------- #

    @router.post("/api/explain", name="api_explain")
    def api_explain(app: "ThaliaApp", request: Request) -> Response:
        """The structured explain tree for an XQuery, costed against the
        testbed's statistics.

        Body: ``{"xquery": ..., "source": ...?, "analyze": ...?}``.
        ``analyze=true`` executes the plan once instrumented and joins
        actual rows/calls/wall-time onto the tree.  Responses go through
        the bounded content cache (ETag/gzip): plans and estimates are
        pure functions of (query, statistics), so a plain explain that
        was evicted is rebuilt byte-identical.  A held analyzed response
        replays its run's actuals; one rebuilt after eviction carries
        the new run's wall times (row counts are deterministic).
        """
        try:
            payload = request.json()
        except ValueError as exc:
            return Response.of_json({"error": str(exc)}, status=400)
        if not isinstance(payload, dict) or \
                not isinstance(payload.get("xquery"), str):
            return Response.of_json(
                {"error": "body must be a JSON object with an 'xquery' "
                          "string"}, status=400)
        analyze = payload.get("analyze", False)
        if not isinstance(analyze, bool):
            return Response.of_json(
                {"error": "'analyze' must be a boolean"}, status=400)
        slug = payload.get("source")
        content_fp = _scope(app.testbed, slug)
        if isinstance(content_fp, dict):
            return Response.of_json(content_fp, status=404)

        def build() -> tuple[bytes, str]:
            if analyze:
                plan.execute(_documents(app.testbed, slug), analyze=True)
                app.record_q_errors(plan)
            return (Response.of_json({
                "explain": plan.explain_data(analyze=analyze),
                "text": plan.explain(analyze=analyze),
            }).body, "application/json")

        try:
            plan = compile_plan(app.plans, app.statistics,
                                payload["xquery"])
            response = app.cached_response(
                ("explain", plan.identity, content_fp, analyze), build)
        except XQueryError as exc:
            body, status = query_error(exc)
            return Response.of_json(body, status=status)
        app.record_explain(analyzed=analyze)
        return response

    @router.post("/api/query", name="api_run_query")
    def api_run_query(app: "ThaliaApp", request: Request) -> Response:
        try:
            payload = request.json()
        except ValueError as exc:
            return Response.of_json({"error": str(exc)}, status=400)
        body, status = _run_one_query(app, payload, "query")
        # A shed answer tells the client when to come back.
        headers = {"Retry-After": str(body["retry_after"])} \
            if status == 429 else {}
        return Response.of_json(body, status=status, headers=headers,
                                no_store=True)

    @router.post("/api/query/batch", name="api_run_query_batch")
    def api_run_query_batch(app: "ThaliaApp", request: Request) -> Response:
        """Execute several queries in one request, concurrently.

        Body: ``{"queries": [{"xquery": ..., "source": ...?}, ...]}``.
        Items fan out over the app's query pool (``--query-workers``),
        which also bounds how many of them wait on the fleet at once;
        identical items — in this batch or racing with other requests —
        coalesce to one execution via the result cache.  Results come
        back in input order; each carries its own ``status`` so one bad
        query cannot sink its batch-mates.
        """
        try:
            payload = request.json()
        except ValueError as exc:
            return Response.of_json({"error": str(exc)}, status=400)
        if not isinstance(payload, dict) or \
                not isinstance(payload.get("queries"), list):
            return Response.of_json(
                {"error": "body must be a JSON object with a 'queries' "
                          "list"}, status=400)
        queries = payload["queries"]
        if not queries:
            return Response.of_json(
                {"error": "'queries' must not be empty"}, status=400)
        if len(queries) > MAX_BATCH_QUERIES:
            return Response.of_json(
                {"error": f"'queries' exceeds the batch limit of "
                          f"{MAX_BATCH_QUERIES}"}, status=400)
        if len(queries) > 1:
            outcomes = list(app.query_pool.map(
                lambda item: _run_one_query(app, item, "batch"), queries))
        else:
            outcomes = [_run_one_query(app, queries[0], "batch")]
        results = []
        for body, status in outcomes:
            body["status"] = status
            results.append(body)
        return Response.of_json({
            "count": len(results),
            "results": results,
        }, no_store=True)

    @router.post("/api/scenarios", name="api_gen_scenarios")
    def api_gen_scenarios(app: "ThaliaApp", request: Request) -> Response:
        try:
            payload = request.json()
        except ValueError as exc:
            return Response.of_json({"error": str(exc)}, status=400)
        if not isinstance(payload, dict):
            return Response.of_json(
                {"error": "body must be a JSON object"}, status=400)
        seed = payload.get("seed", app.testbed.seed)
        cases = payload.get("cases", 5)
        tier = payload.get("tier")
        if not _is_int(seed):
            return Response.of_json(
                {"error": "'seed' must be an integer"}, status=400)
        if not _is_int(cases) or not 1 <= cases <= MAX_SCENARIO_CASES:
            return Response.of_json(
                {"error": f"'cases' must be an integer in "
                          f"1..{MAX_SCENARIO_CASES}"}, status=400)
        if tier is not None and tier not in SCENARIO_TIERS:
            return Response.of_json(
                {"error": f"'tier' must be one of "
                          f"{list(SCENARIO_TIERS)}"}, status=400)
        summary = app.generate_scenario_pack(seed, cases, tier)
        return Response.of_json(summary, status=201, no_store=True)

    @router.post("/api/scores", name="api_upload_scores")
    def api_upload_scores(app: "ThaliaApp", request: Request) -> Response:
        try:
            payload = request.json()
        except ValueError as exc:
            return Response.of_json({"error": str(exc)}, status=400)
        if not isinstance(payload, dict):
            return Response.of_json(
                {"error": "body must be a JSON object"}, status=400)
        submitter = payload.get("submitter")
        if not isinstance(submitter, str) or not submitter.strip():
            return Response.of_json(
                {"error": "submission needs a non-empty 'submitter'"},
                status=400)
        date = payload.get("date", "2004-08-01")
        if not isinstance(date, str):
            return Response.of_json(
                {"error": "'date' must be an ISO date string"}, status=400)
        claimed = payload.get("claimed", {})
        if not isinstance(claimed, dict) or any(
                key in claimed and not _is_int(claimed[key])
                for key in ("correct", "complexity")):
            return Response.of_json(
                {"error": "'claimed' must map 'correct'/'complexity' to "
                          "integers"}, status=400)
        try:
            card = ScoreCard.from_dict(payload.get("card"))
        except ValueError as exc:
            return Response.of_json(
                {"error": f"malformed score card: {exc}"}, status=400)
        problems = validate_claims(card,
                                   claimed_correct=claimed.get("correct"),
                                   claimed_complexity=claimed.get(
                                       "complexity"))
        if problems:
            return Response.of_json(
                {"rejected": True, "system": card.system,
                 "problems": problems}, status=422)
        entry = app.store.append(card, submitter.strip(), date)
        position = next(
            i for i, ranked in enumerate(app.store.ranked(), start=1)
            if ranked.card.system == card.system)
        return Response.of_json({
            "accepted": True,
            "system": card.system,
            "rank": position,
            "correct": card.correct_count,
            "complexity": card.complexity_score,
            "submitter": entry.submitter,
            "date": entry.date,
        }, status=201, no_store=True)

    return router


def _scope(testbed, slug: object) -> str | dict:
    """The content fingerprint of the documents of *testbed* a query
    body's ``source`` names: the one source, or the whole testbed when
    *slug* is ``None``.  An unknown source yields its 404 body instead."""
    if slug is None:
        return testbed.content_fingerprint()
    if slug not in testbed:
        return {"error": f"no such source: {slug}"}
    return testbed.content_fingerprint([slug])


def _documents(testbed, slug: str | None) -> DocumentResolver:
    """The ``doc()`` resolver over the scope :func:`_scope` accepted;
    built only where a plan runs, so a result-cache hit or a fleet
    frontend never pays for it."""
    if slug is None:
        return testbed.document_resolver()
    return DocumentResolver({slug: testbed.source(slug).document})


def query_error(exc: XQueryError) -> tuple[dict, int]:
    """The 400 answer of a query that fails to parse or to run; a parse
    error is located by line and column when the parser knows them."""
    body: dict = {"error": f"{type(exc).__name__}: {exc}"}
    if isinstance(exc, XQuerySyntaxError) and exc.line is not None:
        body.update(line=exc.line, column=exc.column,
                    context=exc.context())
    return body, 400


def compile_plan(plans: PlanCache, statistics: Statistics,
                 text: str) -> Plan:
    """The service's one compile entry point: *text*'s plan costed
    against *statistics*, through *plans*.

    ``/api/query``, ``/api/query/batch``, ``/api/explain`` and fleet
    workers all compile here, so the plan a query runs is the plan
    explain describes (hash joins included).  Raises
    :class:`XQueryError`.
    """
    return plans.get(text, statistics=statistics)


def execute_query(plans: PlanCache, statistics: Statistics,
                  documents: DocumentResolver,
                  text: str) -> tuple[tuple, dict]:
    """Compile *text* through :func:`compile_plan`, run it over
    *documents* and serialize its items: the value the result cache
    holds for it, as ``(items, plan info)``.  Raises
    :class:`XQueryError`.

    It runs in the process that answers a query: the frontend when it
    serves alone, a worker when a fleet computes its misses.
    """
    plan = compile_plan(plans, statistics, text)
    items = plan.execute(documents)
    rendered = tuple(serialize(item) if isinstance(item, XmlElement)
                     else item for item in items)
    stats = plan.last_stats
    return rendered, {
        "exec_ns": stats.exec_ns,
        "nodes_visited": stats.nodes_visited,
        "index_lookups": stats.index_lookups,
    }


def _run_one_query(app: "ThaliaApp", payload: object,
                   endpoint: str) -> tuple[dict, int]:
    """Validate and answer one query item; ``(body, http status)``.

    Shared by ``/api/query`` and ``/api/query/batch`` (*endpoint* names
    which, for the fleet's SLO table).  Answers come from the app's
    :class:`~repro.xquery.results.ResultCache`, keyed by the query's
    :func:`~repro.xquery.plan.query_fingerprint` and the content
    fingerprint of the requested document scope — a repeated query is a
    dict probe, N identical concurrent queries compute once (the rest
    coalesce), and a testbed with different content can never be
    answered from this one's entries.  A miss runs
    :func:`execute_query` here, or on a fleet worker when the app has
    one; errors are never cached.
    """
    if not isinstance(payload, dict) or \
            not isinstance(payload.get("xquery"), str):
        return {"error": "body must be a JSON object with an 'xquery' "
                         "string"}, 400
    text = payload["xquery"]
    slug = payload.get("source")
    content_fp = _scope(app.testbed, slug)
    if isinstance(content_fp, dict):
        return content_fp, 404
    if app.fleet is not None:
        def compute() -> tuple[tuple, dict]:
            return app.fleet.run(payload, endpoint)
    else:
        def compute() -> tuple[tuple, dict]:
            return execute_query(app.plans, app.statistics,
                                 _documents(app.testbed, slug), text)
    try:
        (rendered, plan_info), cache_status = app.results.fetch(
            query_fingerprint(text), content_fp, compute)
    except XQueryError as exc:
        return query_error(exc)
    except FleetQueryFailed as exc:
        return dict(exc.body), exc.status
    except FleetSaturated as exc:
        return {"error": "worker fleet saturated",
                "retry_after": exc.retry_after_s}, 429
    except FleetClosed:
        return {"error": "service is shutting down"}, 503
    return {
        "count": len(rendered),
        "items": list(rendered),
        "cached": cache_status != "miss",
        "plan": plan_info,
    }, 200


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _query_payload(query) -> dict:
    return {
        "number": query.number,
        "name": query.name,
        "short_name": query_short_name(query.number),
        "group": query.group,
        "capability": query.capability.name,
        "reference": query.reference,
        "challenge": query.challenge,
        "xquery": query.xquery,
        "challenge_description": query.challenge_description,
    }
