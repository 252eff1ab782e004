"""A bounded LRU cache of compiled query plans, in two layers.

**Exact layer** (the cache itself).  Keyed by ``(source, registry
fingerprint, statistics fingerprint)`` so the same query text compiled
against different user-defined function sets (e.g. the warehouse loader's
UDFs) — or costed against different statistics — gets distinct entries,
while re-running a benchmark query through the default builtins hits the
cache every time.  A repeated text returns the same :class:`Plan` object,
so its run counters accumulate and explain describes the plan that ran.

**Template layer** (:attr:`PlanCache.templates`).  Behind an exact miss,
a text with comparison literals (see :mod:`repro.xquery.template`) looks
up its shape, keyed by the token stream with those literals masked and
the registry fingerprint.  The shape's first text builds its template
(one compile, of the text with sentinels in the slots) or learns that
it has none; both are held, so later texts of the shape bind at once or
compile in full without trying again.  Binding clones the template's
lowered tree with the text's literals and costs it, skipping parse and
lowering.  The layer is its own bounded cache, so a stream of unique
texts cannot evict the shapes they share.

The process-wide :func:`shared_plan_cache` is what the runner, the
claim validator and the CLI use; the server keeps its own instance so
``/api/stats`` reports request-driven hit rates untainted by batch runs.
"""

from __future__ import annotations

import time

from ..cache import BoundedCache
from .functions import FunctionRegistry, default_registry
from .lexer import tokenize
from .plan import Plan, compile_query
from .template import PlanTemplate, template_shape


class PlanCache(BoundedCache[tuple, Plan]):
    """Thread-safe LRU mapping query text (+ function registry) to
    compiled :class:`~repro.xquery.plan.Plan` objects, with a template
    layer of the same size behind it."""

    def __init__(self, maxsize: int = 256) -> None:
        super().__init__(maxsize)
        self.templates: BoundedCache[tuple, PlanTemplate | None] = \
            BoundedCache(maxsize)

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
            key, lambda: self._compile(source, registry, statistics))
        return plan

    def _compile(self, source: str, registry: FunctionRegistry,
                 statistics) -> Plan:
        """An exact-layer miss: bind the template of the text's shape
        (building it on the shape's first text), or compile in full when
        the shape has none."""
        started = time.perf_counter_ns()
        # Lexing errors raise here, as the parse of a compile would.
        shape = template_shape(tokenize(source))
        if shape is None:
            return compile_query(source, registry, statistics=statistics)
        key, slots = shape
        template, _status = self.templates.lookup(
            (key, registry.fingerprint()),
            lambda: PlanTemplate.build(
                source, slots, lambda text: compile_query(text, registry)))
        if template is None:
            return compile_query(source, registry, statistics=statistics)
        # The time before binding (the lexing, and the template's compile
        # on a shape's first text) is reported as the plan's parse time.
        return template.bind(source, [token.value for token in slots],
                             registry, statistics,
                             time.perf_counter_ns() - started)

    def clear(self) -> None:
        """Drop every plan and template and zero both layers' counters."""
        super().clear()
        self.templates.clear()

    def __contains__(self, source: str) -> bool:
        return any(key[0] == source for key in self.keys())


_SHARED = PlanCache()


def shared_plan_cache() -> PlanCache:
    """The process-wide cache used by the runner, validator and CLI."""
    return _SHARED


__all__ = ["PlanCache", "shared_plan_cache"]
