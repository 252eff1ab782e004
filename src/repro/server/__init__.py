"""`repro.server` — the THALIA testbed as a live benchmark service.

The paper's web site is interactive: browse catalogs, download bundles,
run queries, upload score cards, view the ranked honor roll (§2.2,
Fig. 4).  This package serves all of it over HTTP from one testbed
build:

* :class:`ThaliaApp` — transport-independent request handling: routing,
  content cache (sha256 ETags, 304s, gzip), metrics, score re-scoring;
* :class:`ThaliaServer` — a small stdlib HTTP/1.1 keep-alive server on
  a bounded thread pool, with capped lines, headers and bodies (400 /
  413 / 431 answers), idle and per-request read deadlines, one
  ``sendall`` per response, and a graceful shutdown that closes idle
  connections (``thalia serve`` on the command line);
* :class:`HonorRollStore` — durable JSON-lines store behind
  ``POST /api/scores`` and the live ``/honor-roll`` page, shared with
  the static :class:`~repro.website.SiteGenerator`.

In-process quickstart::

    from repro.server import ThaliaApp, ThaliaServer

    with ThaliaServer(ThaliaApp(), port=0) as server:
        print(server.url)       # e.g. http://127.0.0.1:49152
        ...                     # requests are served on worker threads
"""

from .app import DEFAULT_SCORES_FILE, ThaliaApp, ThaliaServer
from .cache import CacheEntry, ContentCache, make_etag
from .fleet import (
    FleetClosed,
    FleetError,
    FleetQueryFailed,
    FleetSaturated,
    WorkerFleet,
)
from .handlers import build_router
from .metrics import (
    EndpointStats,
    LatencyReservoir,
    ServerMetrics,
    percentile,
)
from .router import Request, Response, Route, Router
from .store import HonorRollStore

__all__ = [
    "CacheEntry",
    "ContentCache",
    "DEFAULT_SCORES_FILE",
    "EndpointStats",
    "FleetClosed",
    "FleetError",
    "FleetQueryFailed",
    "FleetSaturated",
    "HonorRollStore",
    "LatencyReservoir",
    "Request",
    "Response",
    "Route",
    "Router",
    "ServerMetrics",
    "ThaliaApp",
    "ThaliaServer",
    "WorkerFleet",
    "build_router",
    "make_etag",
    "percentile",
]
