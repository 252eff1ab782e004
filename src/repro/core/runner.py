"""Benchmark runner: systems × queries → score cards.

Since PR 4 the harness executes in two layers:

* **result reuse** — gold answers go through the shared
  :class:`~repro.xquery.results.ResultCache` (computed once per query per
  testbed content fingerprint, shared by every system in the run), and
  :class:`~repro.systems.base.CapabilityModelSystem` caches per-source
  integrations the same way;
* **parallel fan-out** — ``workers > 1`` spreads the (system, query)
  pairs over a ``ThreadPoolExecutor``.

Outcomes are reassembled by (system position, query number), never by
completion order, so a parallel run's score cards are byte-identical to
the serial run's, and to a run with no result reuse at all —
``tests/core/test_runner_parallel.py`` holds us to that.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
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
               chosen: list[BenchmarkQuery], workers: int) -> list[ScoreCard]:
    """Score *systems* over *chosen* queries, deterministically.

    Gold answers are resolved through the shared result cache first —
    one computation per query, shared by every system and every worker —
    then the (system, query) grid fans out.  Each cell is independent
    (systems share nothing but caches, which are thread-safe), and the
    grid is reassembled positionally, so worker count and completion
    order can never reorder an outcome.
    """
    _warm_plans(chosen)
    golds = {query.number: cached_gold_answer(query, bed)
             for query in chosen}
    cards = [ScoreCard(system=system.name) for system in systems]
    cells = [(index, query) for index in range(len(systems))
             for query in chosen]
    if workers > 1 and len(cells) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(
                lambda cell: run_query(systems[cell[0]], cell[1], bed,
                                       gold=golds[cell[1].number]),
                cells))
    else:
        outcomes = [run_query(systems[index], query, bed,
                              gold=golds[query.number])
                    for index, query in cells]
    for (index, _query), outcome in zip(cells, outcomes):
        cards[index].outcomes.append(outcome)
    return cards


def run_benchmark(system: "IntegrationSystem",
                  testbed: Testbed | None = None,
                  queries: Iterable[BenchmarkQuery] | None = None,
                  workers: int = 1) -> ScoreCard:
    """Run a system through the (full, by default) benchmark.

    When no testbed is passed, the process-wide shared build is used, so
    consecutive ``run_benchmark`` calls (and :func:`run_all`) pay for at
    most one testbed build per process.  ``workers > 1`` runs the queries
    concurrently; the outcome order is identical either way.
    """
    bed = testbed if testbed is not None else shared_testbed()
    chosen = list(queries) if queries is not None else list(QUERIES)
    return _run_cards([system], bed, chosen, workers)[0]


def run_all(systems: Iterable["IntegrationSystem"],
            testbed: Testbed | None = None,
            workers: int = 1) -> list[ScoreCard]:
    """Run several systems over one shared testbed build.

    Plan-cache warmup happens once for the whole run (not once per
    system), gold answers are computed once per query and shared across
    systems, and ``workers > 1`` fans every (system, query) pair over a
    thread pool.  Score cards come back in input-system order with
    outcomes in query order — byte-identical to ``workers=1``.
    """
    bed = testbed if testbed is not None else shared_testbed()
    return _run_cards(list(systems), bed, list(QUERIES), workers)
