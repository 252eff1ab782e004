"""ResultCache semantics: LRU + counters, single-flight, fingerprints,
and the invalidation guarantee (changed content is never served stale)."""

import copy
import threading

import pytest

from repro.catalogs import build_testbed, paper_universities
from repro.core.answers import cached_gold_answer, gold_answer
from repro.core.queries import get_query
from repro.xquery import compile_query, query_fingerprint
from repro.xquery.results import (
    ResultCache,
    estimate_bytes,
    shared_result_cache,
)


class TestBasics:
    def test_miss_then_hit(self):
        cache = ResultCache()
        calls = []
        value = cache.get_or_compute("task", "content",
                                     lambda: calls.append(1) or 42)
        again = cache.get_or_compute("task", "content",
                                     lambda: calls.append(1) or 42)
        assert value == again == 42
        assert calls == [1]
        assert cache.misses == 1 and cache.hits == 1

    def test_fetch_reports_status(self):
        cache = ResultCache()
        _, first = cache.fetch("t", "c", lambda: "v")
        _, second = cache.fetch("t", "c", lambda: "v")
        assert (first, second) == ("miss", "hit")

    def test_distinct_keys_distinct_entries(self):
        cache = ResultCache()
        assert cache.get_or_compute("t", "c1", lambda: "a") == "a"
        assert cache.get_or_compute("t", "c2", lambda: "b") == "b"
        assert cache.get_or_compute("t2", "c1", lambda: "c") == "c"
        assert len(cache) == 3 and cache.misses == 3

    def test_lru_eviction_and_byte_counter(self):
        cache = ResultCache(maxsize=2)
        cache.get_or_compute("a", "c", lambda: "x" * 10)
        cache.get_or_compute("b", "c", lambda: "y" * 20)
        cache.get_or_compute("a", "c", lambda: "never")   # refresh a
        cache.get_or_compute("d", "c", lambda: "z" * 30)  # evicts b
        assert cache.evictions == 1
        assert cache.bytes == 10 + 30
        # b is gone, a survived its refresh
        calls = []
        cache.get_or_compute("b", "c", lambda: calls.append(1) or "y")
        assert calls == [1]

    def test_clear_resets(self):
        cache = ResultCache()
        cache.get_or_compute("t", "c", lambda: "v")
        cache.clear()
        assert len(cache) == 0 and cache.bytes == 0 and cache.misses == 0

    def test_stats_shape(self):
        cache = ResultCache(maxsize=7)
        cache.get_or_compute("t", "c", lambda: "v")
        cache.get_or_compute("t", "c", lambda: "v")
        stats = cache.stats()
        assert stats["entries"] == 1 and stats["maxsize"] == 7
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["hit_rate"] == 0.5
        assert stats["bytes"] == estimate_bytes("v")

    def test_rejects_zero_maxsize(self):
        with pytest.raises(ValueError):
            ResultCache(maxsize=0)

    def test_shared_instance_is_stable(self):
        assert shared_result_cache() is shared_result_cache()


class TestSingleFlight:
    def test_racing_misses_compute_once(self):
        cache = ResultCache()
        entered = threading.Event()
        release = threading.Event()
        calls = []

        def compute():
            calls.append(threading.get_ident())
            entered.set()
            release.wait(timeout=10)
            return "value"

        leader_result = []
        leader = threading.Thread(target=lambda: leader_result.append(
            cache.fetch("t", "c", compute)))
        leader.start()
        assert entered.wait(timeout=10)

        follower_result = []
        follower = threading.Thread(target=lambda: follower_result.append(
            cache.fetch("t", "c", compute)))
        follower.start()
        # Wait until the follower is registered as coalesced, then release.
        for _ in range(1000):
            if cache.coalesced:
                break
            threading.Event().wait(0.005)
        release.set()
        leader.join(timeout=10)
        follower.join(timeout=10)

        assert len(calls) == 1
        assert leader_result[0] == ("value", "miss")
        assert follower_result[0][0] == "value"
        assert follower_result[0][1] in ("hit", "coalesced")

    def test_failed_flight_propagates_and_caches_nothing(self):
        cache = ResultCache()

        def boom():
            raise RuntimeError("no")

        with pytest.raises(RuntimeError):
            cache.get_or_compute("t", "c", boom)
        assert len(cache) == 0
        # The key is not poisoned: the next caller recomputes.
        assert cache.get_or_compute("t", "c", lambda: "ok") == "ok"


class TestPlanFingerprint:
    def test_stable_across_recompilation(self):
        source = 'FOR $c in doc("cmu.xml")/cmu/Course RETURN $c'
        assert compile_query(source).fingerprint == \
            compile_query(source).fingerprint

    def test_distinct_sources_distinct_fingerprints(self):
        a = compile_query('FOR $c in doc("cmu.xml")/cmu/Course RETURN $c')
        b = compile_query('FOR $c in doc("eth.xml")/eth/Course RETURN $c')
        assert a.fingerprint != b.fingerprint

    def test_registry_contents_change_fingerprint(self):
        from repro.xquery import builtin_registry
        source = 'FOR $c in doc("cmu.xml")/cmu/Course RETURN $c'
        plain = compile_query(source)
        extended = builtin_registry()
        extended.register("shout", lambda ctx, args: [
            str(args[0][0]).upper()], 1)
        assert compile_query(source, extended).fingerprint \
            != plain.fingerprint
        # query_fingerprint is the same identity, without compiling.
        assert query_fingerprint(source) == plain.fingerprint
        assert query_fingerprint(source, extended) \
            == compile_query(source, extended).fingerprint

    def test_registry_fingerprint_memo_invalidated_on_register(self):
        from repro.xquery import builtin_registry
        registry = builtin_registry()
        before = registry.fingerprint()
        assert registry.fingerprint() is before     # memoized
        text = registry.fingerprint_bytes()
        registry.register("extra", lambda ctx, args: [], 0)
        after = registry.fingerprint()
        assert after != before
        assert registry.fingerprint_bytes() != text
        assert any(name == "extra" for name, _ in after)


class TestContentFingerprint:
    @pytest.fixture(scope="class")
    def bed(self, paper_testbed):
        return paper_testbed

    def test_full_fingerprint_is_stable(self, bed):
        assert bed.content_fingerprint() == bed.content_fingerprint()

    def test_subset_order_insensitive(self, bed):
        assert bed.content_fingerprint(["cmu", "umich"]) == \
            bed.content_fingerprint(["umich", "cmu"])

    def test_subset_differs_from_full(self, bed):
        assert bed.content_fingerprint(["cmu"]) != bed.content_fingerprint()

    def test_identical_builds_fingerprint_identically(self, bed):
        rebuilt = build_testbed(universities=paper_universities())
        assert rebuilt.content_fingerprint() == bed.content_fingerprint()
        assert rebuilt.document_hash("cmu") == bed.document_hash("cmu")

    def test_different_seed_changes_fingerprint(self, bed):
        other = build_testbed(seed=7, universities=paper_universities())
        assert other.content_fingerprint() != bed.content_fingerprint()

    def test_modified_document_changes_fingerprint(self, bed):
        broken = copy.deepcopy(bed)
        root = broken.source("cmu").document.root
        for course in root.findall("Course"):
            course.children = [c for c in course.children
                               if not (hasattr(c, "tag")
                                       and c.tag == "Lecturer")]
        assert broken.document_hash("cmu") != bed.document_hash("cmu")
        assert broken.content_fingerprint() != bed.content_fingerprint()
        # untouched sources still hash identically
        assert broken.document_hash("eth") == bed.document_hash("eth")


class TestInvalidation:
    """A testbed whose content changed can never serve stale results."""

    def test_changed_content_never_serves_stale_gold(self, paper_testbed):
        query = get_query(1)
        # Other tests corrupt a testbed the same way and may have cached
        # the broken fingerprint already — start from a clean slate so
        # the miss arithmetic below is order-independent.
        cache = shared_result_cache()
        cache.clear()
        baseline = cached_gold_answer(query, paper_testbed)
        assert baseline == cached_gold_answer(query, paper_testbed)

        broken = copy.deepcopy(paper_testbed)
        root = broken.source("cmu").document.root
        for course in root.findall("Course"):
            course.children = [c for c in course.children
                               if not (hasattr(c, "tag")
                                       and c.tag == "Lecturer")]
        # The gold is derived from canonical courses (unchanged), but the
        # cache must key it under the *new* content fingerprint — i.e. it
        # recomputes rather than reusing the old entry.
        misses_before = cache.misses
        recomputed = cached_gold_answer(query, broken)
        assert cache.misses == misses_before + 1
        assert recomputed == gold_answer(query, broken)

    def test_changed_content_never_serves_stale_execution(self, paper_testbed):
        cache = ResultCache()
        plan = compile_query(
            'FOR $c in doc("cmu.xml")/cmu/Course RETURN $c/Lecturer')
        documents = {"cmu": paper_testbed.source("cmu").document}
        fresh = cache.execute(plan, documents,
                              paper_testbed.content_fingerprint(["cmu"]))
        assert fresh  # lecturers present

        broken = copy.deepcopy(paper_testbed)
        root = broken.source("cmu").document.root
        for course in root.findall("Course"):
            course.children = [c for c in course.children
                               if not (hasattr(c, "tag")
                                       and c.tag == "Lecturer")]
        stale_check = cache.execute(
            plan, {"cmu": broken.source("cmu").document},
            broken.content_fingerprint(["cmu"]))
        # Same plan, different content fingerprint: executed against the
        # broken document, not replayed from the healthy one's entry.
        assert stale_check == []
        assert cache.misses == 2 and cache.hits == 0

    def test_system_integration_keyed_by_document_hash(self, paper_testbed):
        from repro.systems import thalia_mediator
        query = get_query(1)
        healthy = thalia_mediator().answer(query, paper_testbed)

        broken = copy.deepcopy(paper_testbed)
        root = broken.source("cmu").document.root
        for course in root.findall("Course"):
            course.children = [c for c in course.children
                               if not (hasattr(c, "tag")
                                       and c.tag == "Lecturer")]
        degraded = thalia_mediator().answer(query, broken)
        # Q1 needs CMU lecturers; a stale per-source integration would
        # reproduce the healthy answer despite the corrupted document.
        assert healthy.answer != degraded.answer
