"""Threaded stress tests: every cache keeps one canonical entry when
many threads race the same cold miss, and its counters stay exact when
they insert past its bounds."""

import threading

from repro.cache import BoundedCache
from repro.server.cache import ContentCache
from repro.xquery import PlanCache
from repro.xquery.results import ResultCache, estimate_bytes

THREADS = 16


def _race(worker):
    """Run *worker* on THREADS threads released simultaneously.

    Synchronization is purely event-based: every thread checks in on a
    ready latch, and the coordinator fires one ``go`` event only after
    all of them are parked at it.  There are no sleeps and no wall-clock
    thresholds to mistune — on a loaded box the test just takes longer,
    it cannot spuriously break the way a ``Barrier.wait(timeout=...)``
    used to.  A worker exception is re-raised in the test thread.
    """
    ready = threading.Semaphore(0)
    go = threading.Event()
    results = [None] * THREADS
    errors = []

    def wrapped(index):
        ready.release()
        go.wait()
        try:
            results[index] = worker(index)
        except BaseException as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=wrapped, args=(index,))
               for index in range(THREADS)]
    for thread in threads:
        thread.start()
    for _ in range(THREADS):
        ready.acquire()
    go.set()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return results


class TestPlanCacheRaces:
    def test_racing_misses_one_canonical_plan(self):
        cache = PlanCache()
        source = 'FOR $c in doc("cmu.xml")/cmu/Course RETURN $c'
        plans = _race(lambda index: cache.get(source))
        assert len({id(plan) for plan in plans}) == 1
        assert len(cache) == 1

    def test_mixed_keys_under_contention(self):
        cache = PlanCache()
        sources = [f'FOR $c in doc("cmu.xml")/cmu/Course '
                   f'RETURN $c/F{n}' for n in range(4)]
        plans = _race(lambda index: cache.get(sources[index % 4]))
        assert len({id(plan) for plan in plans}) == 4
        assert len(cache) == 4


class TestContentCacheRaces:
    def test_racing_misses_one_canonical_entry(self):
        cache = ContentCache()
        entries = _race(lambda index: cache.get_or_build(
            ("group", "variant"), lambda: (b"payload", "text/plain")))
        canonical = {id(entry) for entry, _hit in entries}
        assert len(canonical) == 1
        assert cache.misses >= 1
        assert len(cache) == 1
        assert cache.bytes == len(b"payload")

    def test_byte_counter_tracks_prune_under_threads(self):
        # A newer revision replaces the entry under its key: the
        # superseded variant's bytes leave the counter with it.
        cache = ContentCache()

        def worker(index):
            revision = index % 4
            cache.get_or_build(("g", "v"),
                               lambda: (b"x" * (revision + 1), "t"),
                               revision=revision)

        _race(worker)
        entry, _hit = cache.get_or_build(("g", "v"), lambda: (b"x", "t"),
                                         revision=3)
        assert len(cache) == 1
        assert cache.bytes == len(entry.body) == 4
        assert cache.bytes == sum(len(e.body) for e in cache.values())

    def test_stats_bytes_equals_actual_bytes(self):
        cache = ContentCache()
        for index in range(5):
            cache.get_or_build(("g", "v"), lambda: (b"y" * 10, "t"),
                               revision=index)
        assert cache.stats()["bytes"] == 10
        assert cache.stats()["entries"] == 1


class TestBoundedCacheRaces:
    def test_inserts_past_the_bound_keep_counters_exact(self):
        cache = BoundedCache(8, max_bytes=64, sizeof=len)
        peaks = []

        def worker(index):
            for round_ in range(20):
                cache.lookup(f"{index}-{round_}",
                             lambda: b"z" * (index % 5 + round_ % 3 + 1))
                peaks.append(len(cache))

        _race(worker)
        stats = cache.stats()
        assert max(peaks) <= 8
        assert stats["entries"] <= 8 and stats["bytes"] <= 64
        assert stats["evictions"] == THREADS * 20 - stats["entries"]
        assert stats["bytes"] == sum(len(value) for value in cache.values())


class TestResultCacheRaces:
    def test_racing_misses_one_canonical_value(self):
        cache = ResultCache()
        calls = []
        lock = threading.Lock()

        def compute():
            with lock:
                calls.append(1)
            return ("shared",)

        values = _race(lambda index: cache.get_or_compute(
            "task", "content", compute))
        assert len({id(value) for value in values}) == 1
        assert len(calls) == 1
        assert len(cache) == 1
        stats = cache.stats()
        assert stats["misses"] == 1
        assert stats["hits"] + stats["coalesced"] == THREADS - 1

    def test_mixed_keys_and_eviction_under_contention(self):
        cache = ResultCache(maxsize=4)

        def worker(index):
            key = f"task-{index % 8}"
            return cache.get_or_compute(key, "c", lambda: key.upper())

        values = _race(worker)
        assert all(value.startswith("TASK-") for value in values)
        assert len(cache) <= 4
        # The byte counter never drifts from the surviving entries.
        expected = sum(estimate_bytes(value) for value in cache.values())
        assert cache.bytes == expected
