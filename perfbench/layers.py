"""Per-layer metrics from the traced run's spans.

Time metrics (``*_ms``) are mean self time per call inside the timed
window: a span's duration minus the part its children cover (see
``launcher.py``).  A layer with no calls in the window (the parser on
the hot workload, whose answers all come from the result cache) reports
its calls during the warm-up instead, the only ones it made.  Names and
units are declared in ``BENCHMARK.json``.

Each layer metric, the end-to-end metrics a change to that layer should
move, and the workload where it should show:

==============================  ========================================  ==============
layer metric                    end-to-end metric it should move          workload
==============================  ========================================  ==============
server.transport.self_ms        query_p50_ms, throughput_rps              hot
server.transport.wait_ms        query_p50_ms, throughput_rps              hot
server.app.self_ms              query_p50_ms                              hot
server.handlers.self_ms         upload_p50_ms, page_p50_ms                upload
server.encode.ms / .bytes       query_p50_ms, batch_p50_ms                hot
xquery.results.fetch_ms         query_p50_ms                              hot
xquery.results.hit_ratio        (~1 on hot, ~0 on cold)                   hot, cold
xquery.plan_cache.get_ms        query_p50_ms                              cold
xquery.plan_cache.hit_ratio     query_p50_ms                              cold
xquery.parser.parse_ms          query_p50_ms                              cold
xquery.plan.compile_ms          query_p50_ms                              cold
xquery.plan.execute_ms          join_p50_ms, throughput_rps               cold
xquery.plan.nodes_per_item      join_p50_ms                               cold
xquery.plan.index_lookups       join_p50_ms                               cold
xmlmodel.serialize_ms           query_p50_ms                              cold
server.store.append_ms          upload_p50_ms                             upload
core.validate_claims_ms         upload_p50_ms                             upload
server.cache.hit_ratio/.builds  page_p50_ms                               upload
website.render_page_ms          page_p50_ms                               upload
catalogs.pipeline.*_s           setup_s                                   all, most cold
==============================  ========================================  ==============

``server.transport.self_ms`` is the client's round trip minus
``ThaliaApp.handle``; ``server.transport.wait_ms`` is the part of it
before ``handle`` starts (client send, loopback, the server thread
waking and parsing the request), both clocks being the host's monotonic
clock.  ``tracing.overhead_rps`` is untraced minus traced
``throughput_rps``, ``tracing.rtt_ms`` the traced mean round trip and
``tracing.attributed_ms`` the mean, per request, of the self times of
every span carrying its request id, on whichever thread it ran; it
equals the mean ``handle`` time (``rtt_ms - transport.self_ms``) only
when no work escapes attribution or is counted twice.
"""

from __future__ import annotations

from collections import defaultdict

#: Span name -> metric reporting its mean self time.
_SELF_TIME = {
    "server.app": "server.app.self_ms",
    "server.handlers": "server.handlers.self_ms",
    "server.encode": "server.encode.ms",
    "xquery.results.fetch": "xquery.results.fetch_ms",
    "xquery.plan_cache.get": "xquery.plan_cache.get_ms",
    "xquery.parser.parse": "xquery.parser.parse_ms",
    "xquery.plan.compile": "xquery.plan.compile_ms",
    "xquery.plan.execute": "xquery.plan.execute_ms",
    "xmlmodel.serialize": "xmlmodel.serialize_ms",
    "server.store.append": "server.store.append_ms",
    "core.validate_claims": "core.validate_claims_ms",
    "website.render_page": "website.render_page_ms",
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(trace: dict, sends: list[tuple[str, int, int]],
                  window: tuple[int, int]) -> dict[str, float]:
    """Aggregate one traced run; *sends* are the client's ``(request id,
    send ns, round-trip ns)`` triples from the same window."""
    start, end = window
    every: dict[str, list] = defaultdict(list)
    timed: dict[str, list] = defaultdict(list)
    handled: dict[str, tuple[int, int]] = {}
    attributed: dict[str, int] = defaultdict(int)
    for span in trace["spans"]:
        name, _thread, began, ended, child, rid, _detail = span
        every[name].append(span)
        if began >= start and ended <= end:
            timed[name].append(span)
        if rid is not None:
            attributed[rid] += ended - began - child
            if name == "server.app":
                handled[rid] = (began, ended)
    self_ns: dict[str, list[int]] = defaultdict(list)
    details: dict[str, list] = defaultdict(list)
    for name, named in every.items():
        for _, _thread, began, ended, child, _rid, detail in \
                timed.get(name) or named:
            self_ns[name].append(ended - began - child)
            details[name].append(detail)

    metrics = {metric: _ratio(sum(self_ns[span]), len(self_ns[span])) / 1e6
               for span, metric in _SELF_TIME.items()}

    encoded = details["server.encode"]
    metrics["server.encode.bytes"] = _ratio(sum(encoded), len(encoded))
    fetched = details["xquery.results.fetch"]
    metrics["xquery.results.hit_ratio"] = _ratio(fetched.count("hit"),
                                                 len(fetched))
    lookups = details["xquery.plan_cache.get"]
    metrics["xquery.plan_cache.hit_ratio"] = _ratio(
        len(lookups) - lookups.count("miss"), len(lookups))
    executed = details["xquery.plan.execute"]
    metrics["xquery.plan.nodes_per_item"] = _ratio(
        sum(row[0] for row in executed), sum(row[2] for row in executed))
    metrics["xquery.plan.index_lookups"] = _ratio(
        sum(row[1] for row in executed), len(executed))
    probes = details["server.cache.get_or_build"]
    metrics["server.cache.hit_ratio"] = _ratio(probes.count(True),
                                               len(probes))
    metrics["server.cache.builds"] = probes.count(False)

    transport, waits, round_trips, owned = [], [], [], []
    for rid, sent, rtt in sends:
        if rid in handled:
            began, ended = handled[rid]
            transport.append(rtt - (ended - began))
            waits.append(began - sent)
            round_trips.append(rtt)
            owned.append(attributed[rid])
    for metric, samples in (("server.transport.self_ms", transport),
                            ("server.transport.wait_ms", waits),
                            ("tracing.rtt_ms", round_trips),
                            ("tracing.attributed_ms", owned)):
        metrics[metric] = _ratio(sum(samples), len(samples)) / 1e6
    for stage in ("render_s", "scrape_s", "infer_s", "wall_s"):
        metrics[f"catalogs.pipeline.{stage}"] = trace["build"].get(stage, 0.0)
    return metrics
