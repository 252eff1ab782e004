"""One bounded, thread-safe LRU with single-flight misses.

Every in-memory cache of the service and the planner is a
:class:`BoundedCache` (or a thin subclass naming its key): the server's
response cache, the plan cache, the query-result cache, the planner's
statistics cache and the store of generated scenario packs.

* **Bounded.** At most ``maxsize`` entries and, when ``max_bytes`` is
  given, at most that many bytes as measured by ``sizeof``.  Inserting
  past either bound evicts least-recently-used entries; a value larger
  than ``max_bytes`` on its own is returned to its callers but never
  held.  Bounds are set by the owning code, not by users.
* **Single-flight.** Exactly one thread computes a cold key; threads
  racing on it wait for that result (``coalesced``) instead of
  recomputing, so the first stored value is the one every caller sees.
* **Errors are never cached.** A failed computation raises in every
  waiter and leaves the key empty, so the next caller recomputes.
* **Staleness without scans.** :meth:`lookup`'s ``fresh`` predicate
  turns a held value it rejects into a miss that replaces the entry in
  place, so a key whose content moves on (the honor roll's store
  revision) needs no sweep over other keys.

Values are shared across callers and threads and must be treated as
immutable.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Generic, Hashable, TypeVar

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")


class _Flight:
    """One in-progress computation other threads can await."""

    __slots__ = ("event", "value", "error")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.value = None
        self.error: BaseException | None = None


class BoundedCache(Generic[K, V]):
    """Thread-safe LRU with a count bound, an optional byte bound and
    single-flight misses; see the module docstring."""

    def __init__(self, maxsize: int, *, max_bytes: int | None = None,
                 sizeof: Callable[[V], int] | None = None) -> None:
        if maxsize < 1:
            raise ValueError(f"{type(self).__name__} maxsize must be >= 1")
        self.maxsize = maxsize
        self.max_bytes = max_bytes
        self._sizeof = sizeof
        self._lock = threading.Lock()
        self._entries: OrderedDict[K, tuple[V, int]] = OrderedDict()
        self._inflight: dict[K, _Flight] = {}
        self.hits = 0
        self.misses = 0
        self.coalesced = 0
        self.evictions = 0
        self.bytes = 0          # running sum of held sizes

    def lookup(self, key: K, compute: Callable[[], V],
               fresh: Callable[[V], bool] | None = None) -> tuple[V, str]:
        """``(value, status)``, status ``"hit"``, ``"miss"`` or
        ``"coalesced"``; *compute* runs outside the lock on a miss.

        With *fresh*, a held or just-computed value it rejects does not
        count: the caller computes (or joins a newer computation) and
        the result replaces the stale entry.
        """
        while True:
            with self._lock:
                held = self._entries.get(key)
                if held is not None and (fresh is None or fresh(held[0])):
                    self.hits += 1
                    self._entries.move_to_end(key)
                    return held[0], "hit"
                flight = self._inflight.get(key)
                if flight is None:
                    flight = self._inflight[key] = _Flight()
                    self.misses += 1
                    break
                self.coalesced += 1
            flight.event.wait()
            if flight.error is not None:
                raise flight.error
            if fresh is None or fresh(flight.value):
                return flight.value, "coalesced"
        try:
            value = compute()
            size = self._sizeof(value) if self._sizeof is not None else 0
        except BaseException as exc:
            flight.error = exc
            with self._lock:
                del self._inflight[key]
            flight.event.set()
            raise
        flight.value = value
        with self._lock:
            del self._inflight[key]
            self._store(key, value, size)
        flight.event.set()
        return value, "miss"

    def _store(self, key: K, value: V, size: int) -> None:
        """Insert under the lock, then evict down to both bounds."""
        if self.max_bytes is not None and size > self.max_bytes:
            return
        replaced = self._entries.pop(key, None)
        if replaced is not None:
            self.bytes -= replaced[1]
        self._entries[key] = (value, size)
        self.bytes += size
        while len(self._entries) > self.maxsize or (
                self.max_bytes is not None and self.bytes > self.max_bytes):
            _, (_, evicted) = self._entries.popitem(last=False)
            self.bytes -= evicted
            self.evictions += 1

    def find(self, key: K) -> V | None:
        """The held value for *key* (a hit, refreshing its recency), or
        ``None`` (a miss) without computing anything."""
        with self._lock:
            held = self._entries.get(key)
            if held is None:
                self.misses += 1
                return None
            self.hits += 1
            self._entries.move_to_end(key)
            return held[0]

    def keys(self) -> list[K]:
        """Held keys, least- to most-recently used."""
        with self._lock:
            return list(self._entries)

    def values(self) -> list[V]:
        """Held values, least- to most-recently used."""
        with self._lock:
            return [value for value, _size in self._entries.values()]

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self) -> None:
        """Drop every entry and zero the counters (a computation in
        flight still stores its value when it finishes)."""
        with self._lock:
            self._entries.clear()
            self.hits = self.misses = self.coalesced = self.evictions = 0
            self.bytes = 0

    def stats(self) -> dict:
        """The counters every cache block of ``/api/stats`` reports."""
        with self._lock:
            served = self.hits + self.coalesced
            lookups = served + self.misses
            return {
                "entries": len(self._entries),
                "maxsize": self.maxsize,
                "bytes": self.bytes,
                "max_bytes": self.max_bytes,
                "lookups": lookups,
                "served": served,
                "hits": self.hits,
                "misses": self.misses,
                "coalesced": self.coalesced,
                "evictions": self.evictions,
                "hit_rate": round(served / lookups, 4) if lookups else 0.0,
            }


__all__ = ["BoundedCache"]
