"""BoundedCache: byte bound, oversize values, staleness and probes."""

import threading

from repro.cache import BoundedCache


class TestBounds:
    def test_byte_bound_evicts_least_recently_used(self):
        cache = BoundedCache(10, max_bytes=10, sizeof=len)
        cache.lookup("a", lambda: "x" * 4)
        cache.lookup("b", lambda: "y" * 4)
        cache.lookup("a", lambda: "never")          # refresh a
        cache.lookup("c", lambda: "z" * 4)          # 12 bytes: evicts b
        assert cache.keys() == ["a", "c"]
        assert cache.stats()["bytes"] == 8
        assert cache.stats()["evictions"] == 1

    def test_value_over_the_byte_bound_is_returned_not_held(self):
        cache = BoundedCache(10, max_bytes=10, sizeof=len)
        cache.lookup("a", lambda: "x" * 4)
        value, status = cache.lookup("big", lambda: "y" * 11)
        assert (value, status) == ("y" * 11, "miss")
        assert cache.keys() == ["a"]
        assert cache.stats()["bytes"] == 4


class TestFreshness:
    def test_stale_value_is_replaced_in_place(self):
        cache = BoundedCache(4, sizeof=len)
        cache.lookup("k", lambda: "v1")
        cache.lookup("other", lambda: "o")
        value, status = cache.lookup("k", lambda: "v22",
                                     fresh=lambda held: held != "v1")
        assert (value, status) == ("v22", "miss")
        assert cache.keys() == ["other", "k"]
        stats = cache.stats()
        assert stats["bytes"] == 4 and stats["evictions"] == 0
        assert cache.lookup("k", lambda: "never",
                            fresh=lambda held: held == "v22")[1] == "hit"

    def test_waiter_rejecting_the_flight_value_recomputes(self):
        cache = BoundedCache(4)
        entered = threading.Event()
        release = threading.Event()

        def slow_old():
            entered.set()
            release.wait(timeout=10)
            return 1

        leader = threading.Thread(target=cache.lookup, args=("k", slow_old))
        leader.start()
        assert entered.wait(timeout=10)
        follower = []
        thread = threading.Thread(target=lambda: follower.append(
            cache.lookup("k", lambda: 2, fresh=lambda held: held >= 2)))
        thread.start()
        for _ in range(10_000):
            if cache.coalesced:
                break
            threading.Event().wait(0.001)
        release.set()
        leader.join(timeout=10)
        thread.join(timeout=10)
        assert follower == [(2, "miss")]
        assert cache.values() == [2]


class TestFind:
    def test_find_counts_and_never_computes(self):
        cache = BoundedCache(2)
        assert cache.find("k") is None
        cache.lookup("k", lambda: "v")
        cache.lookup("j", lambda: "w")
        assert cache.find("k") == "v"               # refreshes k
        cache.lookup("l", lambda: "x")              # evicts j
        assert cache.keys() == ["k", "l"]
        stats = cache.stats()
        assert (stats["hits"], stats["misses"]) == (1, 4)
