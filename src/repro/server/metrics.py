"""Per-endpoint request metrics for the benchmark service.

Every request the service answers is recorded against its route name:
request count, error count, content-cache hits, bytes sent and a
**bounded reservoir** of per-request latencies from which ``/api/stats``
reports p50, p95 and p99.  Recording is a handful of counter bumps under
one lock, cheap enough to sit on the hot path of every response.

The reservoir (Vitter's Algorithm R) is what makes sustained traffic
safe: memory is capped at :data:`SAMPLE_WINDOW` samples per endpoint no
matter how many requests arrive, and — unlike the sliding ``deque``
window it replaced — the kept samples are a uniform sample of *every*
request since startup, so the published percentiles describe the whole
run rather than whatever the last few seconds looked like.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field

#: Latency samples kept per endpoint (reservoir capacity).
SAMPLE_WINDOW = 4096


def percentile(samples: list[float], fraction: float) -> float:
    """Nearest-rank percentile of *samples* (``fraction`` in 0..1)."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(0, min(len(ordered) - 1,
                      round(fraction * (len(ordered) - 1))))
    return ordered[rank]


class LatencyReservoir:
    """Bounded uniform sample of a latency stream (Algorithm R).

    The first ``capacity`` observations are kept verbatim; from then on
    observation *n* replaces a random kept sample with probability
    ``capacity / n``, so at any point the reservoir is a uniform sample
    of everything seen and memory never exceeds ``capacity`` floats.
    The RNG is seeded deterministically (per reservoir) so identical
    request streams yield identical snapshots, which tests rely on.

    Not thread-safe by itself; callers (``ServerMetrics``, the fleet)
    already serialize recording under their own lock.
    """

    __slots__ = ("capacity", "count", "_samples", "_random")

    def __init__(self, capacity: int = SAMPLE_WINDOW, seed: int = 0) -> None:
        if capacity < 1:
            raise ValueError("LatencyReservoir capacity must be >= 1")
        self.capacity = capacity
        self.count = 0
        self._samples: list[float] = []
        self._random = random.Random(0x5DEECE66D ^ seed)

    def add(self, value: float) -> None:
        self.count += 1
        if len(self._samples) < self.capacity:
            self._samples.append(value)
            return
        slot = self._random.randrange(self.count)
        if slot < self.capacity:
            self._samples[slot] = value

    def __len__(self) -> int:
        return len(self._samples)

    def samples(self) -> list[float]:
        return list(self._samples)

    def percentile(self, fraction: float) -> float:
        return percentile(self._samples, fraction)

    def quantiles_ms(self) -> dict:
        """The standard p50/p95/p99 block, in milliseconds."""
        ordered = sorted(self._samples)
        return {name: round(1000 * percentile(ordered, fraction), 3)
                for name, fraction in (("p50", 0.50), ("p95", 0.95),
                                       ("p99", 0.99))}


@dataclass
class EndpointStats:
    """Counters for one route."""

    requests: int = 0
    errors: int = 0            # responses with status >= 400
    cache_hits: int = 0
    cache_misses: int = 0
    bytes_sent: int = 0
    total_s: float = 0.0
    latencies: LatencyReservoir = field(default_factory=LatencyReservoir)

    @property
    def cache_hit_rate(self) -> float:
        tracked = self.cache_hits + self.cache_misses
        return self.cache_hits / tracked if tracked else 0.0

    def snapshot(self) -> dict:
        return {
            "requests": self.requests,
            "errors": self.errors,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_hit_rate": round(self.cache_hit_rate, 4),
            "bytes_sent": self.bytes_sent,
            "latency_ms": {
                "mean": round(1000 * self.total_s / self.requests, 3)
                if self.requests else 0.0,
                **self.latencies.quantiles_ms(),
            },
        }


class ServerMetrics:
    """Thread-safe per-endpoint request/latency/hit-rate counters."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._endpoints: dict[str, EndpointStats] = {}
        self.started_monotonic = time.monotonic()

    def record(self, endpoint: str, status: int, elapsed_s: float,
               cache_hit: bool | None, bytes_sent: int) -> None:
        """Count one answered request.

        ``cache_hit=None`` means the endpoint does not go through the
        content cache at all (e.g. ``/api/stats``); it is then excluded
        from the hit-rate denominator.
        """
        with self._lock:
            stats = self._endpoints.get(endpoint)
            if stats is None:
                stats = self._endpoints[endpoint] = EndpointStats()
            stats.requests += 1
            if status >= 400:
                stats.errors += 1
            if cache_hit is True:
                stats.cache_hits += 1
            elif cache_hit is False:
                stats.cache_misses += 1
            stats.bytes_sent += bytes_sent
            stats.total_s += elapsed_s
            stats.latencies.add(elapsed_s)

    @property
    def uptime_s(self) -> float:
        return time.monotonic() - self.started_monotonic

    def snapshot(self) -> dict:
        """The ``/api/stats`` payload: totals plus per-endpoint detail."""
        with self._lock:
            endpoints = {name: stats.snapshot()
                         for name, stats in sorted(self._endpoints.items())}
        totals = {
            "requests": sum(e["requests"] for e in endpoints.values()),
            "errors": sum(e["errors"] for e in endpoints.values()),
            "cache_hits": sum(e["cache_hits"] for e in endpoints.values()),
            "cache_misses": sum(e["cache_misses"]
                                for e in endpoints.values()),
            "bytes_sent": sum(e["bytes_sent"] for e in endpoints.values()),
        }
        tracked = totals["cache_hits"] + totals["cache_misses"]
        totals["cache_hit_rate"] = round(
            totals["cache_hits"] / tracked, 4) if tracked else 0.0
        return {
            "uptime_s": round(self.uptime_s, 3),
            "totals": totals,
            "endpoints": endpoints,
        }
