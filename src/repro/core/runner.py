"""Benchmark runner: systems × queries → score cards.

Gold answers go through the shared
:class:`~repro.xquery.results.ResultCache` (computed once per query per
testbed content fingerprint, shared by every system in the run), and
:class:`~repro.systems.base.CapabilityModelSystem` caches per-source
integrations the same way.  The (system, query) grid runs serially: it
is pure-Python CPU work, which a thread pool cannot overlap under the
GIL.  Score cards are byte-identical to a run with no result reuse at
all — ``tests/core/test_runner_parallel.py`` holds us to that.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from ..catalogs import Testbed, shared_testbed
from ..xquery import shared_plan_cache
from .answers import cached_gold_answer, gold_answer
from .queries import QUERIES, Answer, BenchmarkQuery
from .scoring import QueryOutcome, ScoreCard

if TYPE_CHECKING:  # pragma: no cover
    from ..systems.base import IntegrationSystem


def run_query(system: "IntegrationSystem", query: BenchmarkQuery,
              testbed: Testbed, gold: Answer | None = None) -> QueryOutcome:
    """Run one system on one benchmark query and judge the answer.

    Callers scoring many systems pass the precomputed *gold* so it is
    derived once per query, not once per (system, query).
    """
    if gold is None:
        gold = gold_answer(query, testbed)
    attempt = system.answer(query, testbed)
    return QueryOutcome(
        number=query.number,
        supported=attempt.supported,
        correct=attempt.answer == gold,
        effort=attempt.effort,
        note=attempt.note,
    )


def _warm_plans(queries: list[BenchmarkQuery]) -> None:
    # Warm the shared plan cache up front: systems that evaluate the
    # benchmark text natively (and anything re-running it afterwards,
    # e.g. claim validation) then hit compiled plans every time.
    plans = shared_plan_cache()
    for query in queries:
        plans.get(query.xquery)


def _run_cards(systems: list["IntegrationSystem"], bed: Testbed,
               chosen: list[BenchmarkQuery]) -> list[ScoreCard]:
    """Score *systems* over *chosen* queries.

    Gold answers are resolved through the shared result cache first —
    one computation per query, shared by every system.
    """
    _warm_plans(chosen)
    golds = {query.number: cached_gold_answer(query, bed)
             for query in chosen}
    return [ScoreCard(system=system.name,
                      outcomes=[run_query(system, query, bed,
                                          gold=golds[query.number])
                                for query in chosen])
            for system in systems]


def run_benchmark(system: "IntegrationSystem",
                  testbed: Testbed | None = None,
                  queries: Iterable[BenchmarkQuery] | None = None
                  ) -> ScoreCard:
    """Run a system through the (full, by default) benchmark.

    When no testbed is passed, the process-wide shared build is used, so
    consecutive ``run_benchmark`` calls (and :func:`run_all`) pay for at
    most one testbed build per process.
    """
    bed = testbed if testbed is not None else shared_testbed()
    chosen = list(queries) if queries is not None else list(QUERIES)
    return _run_cards([system], bed, chosen)[0]


def run_all(systems: Iterable["IntegrationSystem"],
            testbed: Testbed | None = None) -> list[ScoreCard]:
    """Run several systems over one shared testbed build.

    Plan-cache warmup happens once for the whole run (not once per
    system) and gold answers are computed once per query and shared
    across systems.  Score cards come back in input-system order with
    outcomes in query order.
    """
    bed = testbed if testbed is not None else shared_testbed()
    return _run_cards(list(systems), bed, list(QUERIES))
