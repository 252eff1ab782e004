"""A bounded LRU cache of compiled query plans.

Keyed by ``(source, registry fingerprint, statistics fingerprint)`` so
the same query text compiled against different user-defined function
sets (e.g. the warehouse loader's UDFs) — or costed against different
statistics — gets distinct entries, while re-running a benchmark query
through the default builtins hits the cache every time.

The process-wide :func:`shared_plan_cache` is what the runner, the
claim validator and the CLI use; the server keeps its own instance so
``/api/stats`` reports request-driven hit rates untainted by batch runs.
"""

from __future__ import annotations

from ..cache import BoundedCache
from .functions import FunctionRegistry, default_registry
from .plan import Plan, compile_query


class PlanCache(BoundedCache[tuple, Plan]):
    """Thread-safe LRU mapping query text (+ function registry) to
    compiled :class:`~repro.xquery.plan.Plan` objects."""

    def __init__(self, maxsize: int = 256) -> None:
        super().__init__(maxsize)

    def get(self, source: str,
            functions: FunctionRegistry | None = None,
            statistics=None) -> Plan:
        """The cached plan for *source*, compiling on a miss.

        *statistics* (a :class:`repro.xquery.stats.Statistics`) enables
        cost-based planning and becomes part of the cache key — a plan
        costed against one statistics snapshot is never served for
        another (or for an un-costed request).  Racing misses compile
        once, so cumulative run stats stay on one plan object.
        """
        registry = functions if functions is not None else default_registry()
        key = (source, registry.fingerprint(),
               statistics.fingerprint if statistics is not None else None)
        plan, _status = self.lookup(
            key, lambda: compile_query(source, registry,
                                       statistics=statistics))
        return plan

    def __contains__(self, source: str) -> bool:
        return any(key[0] == source for key in self.keys())


_SHARED = PlanCache()


def shared_plan_cache() -> PlanCache:
    """The process-wide cache used by the runner, validator and CLI."""
    return _SHARED


__all__ = ["PlanCache", "shared_plan_cache"]
