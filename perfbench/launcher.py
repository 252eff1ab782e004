"""Run ``thalia serve`` with span tracing around the public functions of
each layer, for the benchmark's traced run.

Usage (``PYTHONPATH`` must name the repository's ``src``)::

    python3 perfbench/launcher.py --spans FILE -- [thalia serve args]

Each function is wrapped where its caller looks it up (``serialize`` as
imported by ``repro.server.handlers``, ``compile_query`` as imported by
``repro.xquery.plan_cache``, ...), so the program itself is unchanged.
A span is ``[name, thread, start_ns, end_ns, child_ns, request_id,
detail]``: ``child_ns`` is the time covered by the span's children (self
time is ``end - start - child_ns``) and ``request_id`` is the client's
``X-Request-Id`` for spans under ``ThaliaApp.handle``.  Children are the
spans nested in it on the same thread, plus the work it hands to the
batch-query pool: each pool task runs as a ``server.query_pool`` span
that carries the submitting request's id and is charged to the span
that submitted it, so the self times of one request's spans add up to
its ``ThaliaApp.handle`` span.  Spans stay in memory and are written as
one JSON document at exit.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
import threading
import time

_clock = time.monotonic_ns
_local = threading.local()
_charge = threading.Lock()
SPANS: list[list] = []
BUILD: dict[str, float] = {}


def _stack() -> list:
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = _local.stack = []
    return stack


def traced(name: str, function, detail=None):
    """Wrap *function* in a span; ``detail(frame_stack, args, result)``
    may return a JSON value kept with the span."""

    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        stack = _stack()
        frame = [name, _clock(), 0, None]
        stack.append(frame)
        try:
            result = function(*args, **kwargs)
            if detail is not None:
                frame[3] = detail(stack, args, result)
            return result
        finally:
            end = _clock()
            stack.pop()
            if stack:
                stack[-1][2] += end - frame[1]
            SPANS.append([name, threading.get_ident(), frame[1], end,
                          frame[2], getattr(_local, "rid", None), frame[3]])

    return wrapper


class _CarryingPool:
    """The batch-query executor, with each task traced on the pool
    thread as a child of the span that submitted it."""

    def __init__(self, pool) -> None:
        self._pool = pool

    def map(self, function, *iterables, **kwargs):
        rid = getattr(_local, "rid", None)
        stack = _stack()
        parent = stack[-1] if stack else None
        task = traced("server.query_pool", function)

        def run(*args):
            # The task's span charges its duration to this stand-in for
            # the parent; pool threads may finish together, so the real
            # parent is charged under a lock.
            _local.rid = rid
            stack = _stack()
            stand_in = [None, 0, 0, None]
            stack.append(stand_in)
            try:
                return task(*args)
            finally:
                stack.pop()
                _local.rid = None
                if parent is not None:
                    with _charge:
                        parent[2] += stand_in[2]

        return self._pool.map(run, *iterables, **kwargs)

    def __getattr__(self, attribute: str):
        return getattr(self._pool, attribute)


def _patch(owner, attribute: str, name: str, detail=None) -> None:
    setattr(owner, attribute, traced(name, getattr(owner, attribute), detail))


def _compile_detail(stack, args, result):
    # A compile under PlanCache.get makes that lookup a miss.
    if len(stack) >= 2 and stack[-2][0] == "xquery.plan_cache.get":
        stack[-2][3] = "miss"
    return None


def _execute_detail(stack, args, result):
    stats = args[0].last_stats
    return [stats.nodes_visited, stats.index_lookups, len(result)]


def install() -> None:
    from repro.catalogs import pipeline
    from repro.server import app, cache, handlers, router, store
    from repro.website import sitegen
    from repro.xquery import plan, plan_cache, results

    traced_handle = traced("server.app", app.ThaliaApp.handle)

    def handle_with_id(self, request):
        _local.rid = request.headers.get("x-request-id")
        try:
            return traced_handle(self, request)
        finally:
            _local.rid = None

    app.ThaliaApp.handle = handle_with_id

    query_pool = app.ThaliaApp.query_pool.fget
    app.ThaliaApp.query_pool = property(
        lambda self: _CarryingPool(query_pool(self)))

    build_router = app.build_router

    def traced_router():
        table = build_router()
        table.routes = [dataclasses.replace(
            route, handler=traced("server.handlers", route.handler))
            for route in table.routes]
        return table

    app.build_router = traced_router

    of_json = router.Response.__dict__["of_json"].__func__
    router.Response.of_json = classmethod(traced(
        "server.encode", of_json,
        lambda stack, args, result: len(result.body)))

    _patch(results.ResultCache, "fetch", "xquery.results.fetch",
           lambda stack, args, result: result[1])
    _patch(plan_cache.PlanCache, "get", "xquery.plan_cache.get")
    _patch(plan_cache, "compile_query", "xquery.plan.compile",
           _compile_detail)
    _patch(plan, "parse_query", "xquery.parser.parse")
    _patch(plan.Plan, "execute", "xquery.plan.execute", _execute_detail)
    _patch(handlers, "serialize", "xmlmodel.serialize")
    _patch(handlers, "validate_claims", "core.validate_claims")
    _patch(store.HonorRollStore, "append", "server.store.append")
    _patch(cache.ContentCache, "get_or_build", "server.cache.get_or_build",
           lambda stack, args, result: result[1])
    _patch(sitegen.SiteGenerator, "render_page", "website.render_page")

    build_testbed = pipeline.build_testbed

    def report_build(*args, **kwargs):
        testbed = build_testbed(*args, **kwargs)
        report = testbed.build_report
        BUILD.update(render_s=report.render_s, scrape_s=report.scrape_s,
                     infer_s=report.infer_s, wall_s=report.wall_s)
        return testbed

    pipeline.build_testbed = report_build


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True,
                        help="file the spans are written to at exit")
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    serve_args = args.serve_args
    if serve_args[:1] == ["--"]:
        serve_args = serve_args[1:]
    install()
    from repro.cli import main as thalia

    code = thalia(serve_args)
    with open(args.spans, "w", encoding="utf-8") as handle:
        json.dump({"spans": SPANS, "build": BUILD}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
