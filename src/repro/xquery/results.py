"""Content-addressed query-result cache with single-flight coalescing.

The benchmark harness and the live service execute the same deterministic
computations over the same immutable inputs again and again: the twelve
gold-answer queries per scoring run, reference-query self-checks, every
``POST /api/query`` replay.  :class:`ResultCache` memoizes those results
under a key that *proves* the inputs are unchanged:

``(task fingerprint, content fingerprint)``

* the *task fingerprint* identifies the computation — a compiled
  :class:`~repro.xquery.plan.Plan`'s :attr:`~repro.xquery.plan.Plan.fingerprint`
  (source hash + function-registry fingerprint), or a caller-supplied
  token such as ``"gold:q7"``;
* the *content fingerprint* identifies the data — for testbeds, the
  :meth:`~repro.catalogs.testbed.Testbed.content_fingerprint` derived
  from the exact serialization of the content-addressed build artifacts.

A rebuilt or modified testbed therefore *cannot* serve a stale cached
result: its content fingerprint differs, so the old entries are simply
never addressed again (the same invalidation-by-addressing scheme as the
build pipeline's :class:`~repro.catalogs.pipeline.ArtifactCache`).

It is a :class:`~repro.cache.BoundedCache`, so misses are
**single-flight**: when several threads race on the same cold key, one
computes while the rest wait for that result instead of re-executing
(the ``coalesced`` counter counts the waiters).  Failures are never
cached — every waiter of a failed flight sees the error, and the next
caller recomputes.

Cached values are shared across callers and threads and must be treated
as immutable; everything this repo caches (result sequences, gold-answer
frozensets, integrated course tuples) is read-only by convention.

:func:`shared_result_cache` is the process-wide instance used by the
benchmark runner, the self-check validator and the CLI; the server keeps
its own so ``/api/stats`` reports request-driven hit rates.
"""

from __future__ import annotations

import sys
from typing import Callable, TypeVar

from ..cache import BoundedCache
from ..xmlmodel import XmlElement, serialize
from .plan import Plan

T = TypeVar("T")

Key = tuple[str, str]


def estimate_bytes(value: object) -> int:
    """Approximate in-memory footprint of a cached result.

    Exact accounting would cost more than the cache saves; this walks
    containers and charges serialized length for XML elements, string
    length for text and a flat word for scalars — good enough for the
    ``bytes`` gauge in ``stats()`` to be meaningful.
    """
    if isinstance(value, XmlElement):
        return len(serialize(value))
    if isinstance(value, str):
        return len(value)
    if isinstance(value, (int, float, bool)) or value is None:
        return 8
    if isinstance(value, (list, tuple, set, frozenset)):
        return 16 + sum(estimate_bytes(item) for item in value)
    if isinstance(value, dict):
        return 16 + sum(estimate_bytes(k) + estimate_bytes(v)
                        for k, v in value.items())
    return sys.getsizeof(value)


class ResultCache(BoundedCache[Key, object]):
    """Thread-safe bounded LRU of computed results, single-flight on miss;
    ``bytes`` sums :func:`estimate_bytes` over the held values."""

    def __init__(self, maxsize: int = 512) -> None:
        super().__init__(maxsize, sizeof=estimate_bytes)

    def fetch(self, task_fingerprint: str, content_fingerprint: str,
              compute: Callable[[], T]) -> tuple[T, str]:
        """``(value, status)`` where status is ``hit``/``miss``/``coalesced``.

        Exactly one thread computes a given cold key; concurrent callers
        block on that flight's result.  A failed computation propagates
        its error to every waiter and leaves nothing cached.
        """
        return self.lookup((task_fingerprint, content_fingerprint), compute)

    def get_or_compute(self, task_fingerprint: str, content_fingerprint: str,
                       compute: Callable[[], T]) -> T:
        """:meth:`fetch` without the status (most call sites)."""
        value, _status = self.fetch(task_fingerprint, content_fingerprint,
                                    compute)
        return value

    def execute(self, plan: Plan, documents, content_fingerprint: str):
        """Run *plan* against *documents*, memoized under the plan's own
        fingerprint plus the document set's content fingerprint."""
        return self.get_or_compute(plan.fingerprint, content_fingerprint,
                                   lambda: plan.execute(documents))


_SHARED = ResultCache()


def shared_result_cache() -> ResultCache:
    """The process-wide cache used by the runner, validator and CLI."""
    return _SHARED


__all__ = ["ResultCache", "estimate_bytes", "shared_result_cache"]
