"""PlanCache: LRU behavior, fingerprint keying, stats."""

import pytest

from repro.xquery import PlanCache, shared_plan_cache
from repro.xquery.functions import builtin_registry


class TestLookups:
    def test_hit_returns_same_plan_object(self):
        cache = PlanCache()
        first = cache.get("1 < 2")
        second = cache.get("1 < 2")
        assert first is second
        assert cache.stats()["hits"] == 1
        assert cache.stats()["misses"] == 1
        assert cache.stats()["hit_rate"] == 0.5

    def test_distinct_sources_get_distinct_plans(self):
        cache = PlanCache()
        assert cache.get("1 < 2") is not cache.get("2 < 3")
        assert len(cache) == 2

    def test_contains_by_source(self):
        cache = PlanCache()
        cache.get("1 < 2")
        assert "1 < 2" in cache
        assert "2 < 3" not in cache


class TestFingerprintKeying:
    def test_equivalent_registries_share_entries(self):
        cache = PlanCache()
        first = cache.get("1 < 2", builtin_registry())
        second = cache.get("1 < 2", builtin_registry())
        assert first is second

    def test_rebinding_a_function_splits_the_key(self):
        cache = PlanCache()
        plain = cache.get("upper-case('a')")
        patched = builtin_registry()
        patched.register("upper-case", lambda ctx, args: ["nope"], arity=1)
        custom = cache.get("upper-case('a')", patched)
        assert plain is not custom
        assert plain.execute({}) == ["A"]
        assert custom.execute({}) == ["nope"]


class TestEviction:
    def test_lru_evicts_least_recently_used(self):
        cache = PlanCache(maxsize=2)
        cache.get("1")
        cache.get("2")
        cache.get("1")          # refresh 1; 2 is now LRU
        cache.get("3")          # evicts 2
        assert "1" in cache
        assert "2" not in cache
        assert "3" in cache
        assert cache.stats()["evictions"] == 1

    def test_evicted_entry_recompiles_as_miss(self):
        cache = PlanCache(maxsize=1)
        first = cache.get("1")
        cache.get("2")
        again = cache.get("1")
        assert again is not first
        assert cache.stats()["misses"] == 3

    def test_size_never_exceeds_maxsize(self):
        cache = PlanCache(maxsize=3)
        for n in range(10):
            cache.get(str(n))
        assert len(cache) == 3
        assert cache.stats()["entries"] == 3

    def test_maxsize_must_be_positive(self):
        with pytest.raises(ValueError):
            PlanCache(maxsize=0)


class TestShared:
    def test_shared_cache_is_a_singleton(self):
        assert shared_plan_cache() is shared_plan_cache()

    def test_clear_resets_counters(self):
        cache = PlanCache()
        cache.get("1")
        cache.get("1")
        cache.clear()
        stats = cache.stats()
        assert (stats["entries"], stats["hits"], stats["misses"]) == (0, 0, 0)

    def test_entries_lists_plans_lru_order(self):
        cache = PlanCache()
        a = cache.get("1")
        b = cache.get("2")
        cache.get("1")
        assert cache.values() == [b, a]
