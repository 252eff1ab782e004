"""XQuery-subset engine: lexer, parser, planner, evaluator and functions.

The benchmark queries in the THALIA paper are written in XQuery 1.0 FLWOR
style; this package runs them natively. The unified entry point is the
compile-once/run-many facade::

    from repro import xquery

    plan = xquery.compile('''
        FOR $b in doc("gatech.xml")/gatech/Course
        WHERE $b/Instructor = 'Mark'
        RETURN $b
    ''')
    results = plan.execute(documents={"gatech": gatech_document})
    print(plan.explain())          # the operator tree actually run
    print(plan.last_stats)         # parse/compile/exec ns + counters

``results`` is a sequence (list) of items: XML elements, strings, numbers
or booleans. Integration systems may pass a custom
:class:`~repro.xquery.functions.FunctionRegistry` via
``compile(source, functions=...)`` to expose user-defined functions — the
paper's "external functions" that the scoring function charges complexity
points for.

:class:`Query` and :func:`run_query` remain as thin wrappers over the
plan facade (with an LRU :class:`PlanCache` underneath, so repeated runs
of the same text skip parsing and lowering). The raw ``parse_query`` and
``evaluate`` live in :mod:`repro.xquery.parser` /
:mod:`repro.xquery.evaluator`; new code should use the plan facade.
"""

from __future__ import annotations

from typing import Mapping

from ..xmlmodel import XmlDocument
from . import ast
from .context import DocumentResolver, DynamicContext
from .errors import (
    XQueryError,
    XQueryNameError,
    XQuerySyntaxError,
    XQueryTypeError,
)
from .evaluator import like_cache_stats
from .functions import FunctionRegistry, XQueryFunction, builtin_registry
from .lexer import tokenize
from .cost import q_error
from .plan import Plan, PlanStats, compile_query
from .plan_cache import PlanCache, shared_plan_cache
from .results import ResultCache, shared_result_cache
from .stats import (
    Statistics,
    clear_statistics_cache,
    collect_statistics,
    statistics_cache_stats,
)
from .unparse import unparse
from .runtime import (
    Item,
    Seq,
    atomize,
    effective_boolean_value,
    string_value,
    to_number,
)

#: The facade: ``repro.xquery.compile(source, functions=...) -> Plan``.
#: (Shadows the ``compile`` builtin inside this namespace on purpose.)
compile = compile_query


class Query:
    """A compiled XQuery: parse once, run against any document set.

    Since the planner landed this is a wrapper over :func:`compile`:
    the constructor parses eagerly (so syntax errors still surface with
    line/column context at construction time) and ``run`` fetches the
    matching plan from the shared :class:`PlanCache`.
    """

    def __init__(self, source: str) -> None:
        self.source = source
        self.plan = shared_plan_cache().get(source)
        self.ast = self.plan.ast

    def run(self,
            documents: Mapping[str, XmlDocument] | DocumentResolver | None = None,
            variables: Mapping[str, Seq] | None = None,
            functions: FunctionRegistry | None = None) -> Seq:
        """Evaluate the query and return the result sequence."""
        if functions is None:
            return self.plan.execute(documents, variables)
        plan = shared_plan_cache().get(self.source, functions)
        return plan.execute(documents, variables)

    def __repr__(self) -> str:
        summary = " ".join(self.source.split())
        if len(summary) > 60:
            summary = summary[:57] + "..."
        return f"Query({summary!r})"


def run_query(source: str,
              documents: Mapping[str, XmlDocument] | DocumentResolver | None = None,
              variables: Mapping[str, Seq] | None = None,
              functions: FunctionRegistry | None = None) -> Seq:
    """One-shot convenience wrapper over the plan facade (cached)."""
    return shared_plan_cache().get(source, functions).execute(
        documents, variables)


__all__ = [
    "DocumentResolver",
    "DynamicContext",
    "FunctionRegistry",
    "Item",
    "Plan",
    "PlanCache",
    "PlanStats",
    "Query",
    "ResultCache",
    "Seq",
    "Statistics",
    "XQueryError",
    "XQueryFunction",
    "XQueryNameError",
    "XQuerySyntaxError",
    "XQueryTypeError",
    "ast",
    "atomize",
    "builtin_registry",
    "clear_statistics_cache",
    "collect_statistics",
    "compile",
    "compile_query",
    "effective_boolean_value",
    "like_cache_stats",
    "q_error",
    "run_query",
    "shared_plan_cache",
    "statistics_cache_stats",
    "shared_result_cache",
    "string_value",
    "to_number",
    "tokenize",
    "unparse",
]
