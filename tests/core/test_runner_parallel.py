"""Runner determinism: score cards do not depend on result reuse, and
come back in input-system order with outcomes in query order."""

from repro.core import run_all, run_benchmark
from repro.core.queries import QUERIES
from repro.core.runner import run_query
from repro.core.scoring import ScoreCard
from repro.systems import cohera, iwiz, thalia_mediator
from repro.xquery import shared_result_cache


def _systems():
    return [cohera(), iwiz(), thalia_mediator()]


class TestParallelDeterminism:
    def test_cold_cache_parallel_matches_warm_serial(self, paper_testbed):
        warm = run_all(_systems(), paper_testbed)
        shared_result_cache().clear()
        cold = run_all(_systems(), paper_testbed)
        assert [card.to_json() for card in warm] == \
            [card.to_json() for card in cold]

    def test_parallel_matches_run_without_result_reuse(self, paper_testbed):
        # Clearing the shared cache before every (system, query) cell
        # recomputes each gold answer and source integration from scratch.
        cache = shared_result_cache()
        unshared = []
        for system in _systems():
            card = ScoreCard(system=system.name)
            for query in QUERIES:
                cache.clear()
                card.outcomes.append(run_query(system, query, paper_testbed))
            unshared.append(card)
        shared = run_all(_systems(), paper_testbed)
        assert [card.to_json() for card in unshared] == \
            [card.to_json() for card in shared]

    def test_outcomes_in_query_order(self, paper_testbed):
        for card in run_all(_systems(), paper_testbed):
            assert [outcome.number for outcome in card.outcomes] == \
                [query.number for query in QUERIES]

    def test_cards_in_input_system_order(self, paper_testbed):
        systems = _systems()
        cards = run_all(systems, paper_testbed)
        assert [card.system for card in cards] == \
            [system.name for system in systems]


class TestResultReuse:
    def test_gold_computed_once_per_query(self, paper_testbed):
        cache = shared_result_cache()
        cache.clear()
        run_all(_systems(), paper_testbed)
        gold_misses = sum(
            1 for (task, _content) in cache._entries
            if task.startswith("gold:"))
        assert gold_misses == len(QUERIES)
        # A second full run over the same testbed recomputes nothing.
        misses_before = cache.misses
        run_all(_systems(), paper_testbed)
        assert cache.misses == misses_before

    def test_integrations_shared_across_queries(self, paper_testbed):
        cache = shared_result_cache()
        cache.clear()
        run_benchmark(thalia_mediator(), paper_testbed)
        integrations = [task for (task, _content) in cache._entries
                        if task.startswith("integrate:")]
        # 12 queries × 2 sources = 24 integrations without reuse; the
        # paper set spans far fewer distinct sources.
        assert 0 < len(integrations) < 24
