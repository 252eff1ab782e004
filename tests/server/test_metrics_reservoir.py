"""The latency reservoir: bounded memory under sustained traffic.

The load harness pushes six-figure request counts through one server
process; before the reservoir, every request appended to a per-endpoint
sample list and the stats endpoint held the whole history.  These tests
pin the fix: memory is bounded by ``SAMPLE_WINDOW`` no matter the
request count, the totals stay exact, and snapshots stay deterministic.
"""

from repro.server.metrics import (
    SAMPLE_WINDOW,
    LatencyReservoir,
    ServerMetrics,
)


class TestLatencyReservoir:
    def test_memory_bounded_under_sustained_adds(self):
        reservoir = LatencyReservoir()
        for n in range(100_000):
            reservoir.add(n / 1_000_000)
        assert len(reservoir) <= SAMPLE_WINDOW
        assert len(reservoir) == reservoir.capacity
        assert reservoir.count == 100_000

    def test_small_streams_kept_verbatim(self):
        reservoir = LatencyReservoir(capacity=8)
        for n in range(5):
            reservoir.add(float(n))
        assert reservoir.samples() == [0.0, 1.0, 2.0, 3.0, 4.0]
        assert reservoir.percentile(0.5) == 2.0

    def test_quantiles_cover_the_whole_stream(self):
        # A uniform 0..1 stream must yield p50 ~ 0.5 and p99 ~ 0.99 even
        # after 25x the capacity has flowed through — the reservoir is a
        # uniform sample of everything, not a recency window.
        reservoir = LatencyReservoir(capacity=2048)
        total = 50_000
        for n in range(total):
            reservoir.add(n / total)
        quantiles = reservoir.quantiles_ms()
        assert 400 < quantiles["p50"] < 600
        assert 900 < quantiles["p95"] < 1000
        assert quantiles["p99"] >= quantiles["p95"] >= quantiles["p50"]

    def test_deterministic_given_seed_and_stream(self):
        streams = [LatencyReservoir(capacity=64, seed=7) for _ in range(2)]
        for n in range(10_000):
            for reservoir in streams:
                reservoir.add((n * 37) % 1000 / 1000)
        assert streams[0].samples() == streams[1].samples()
        assert streams[0].quantiles_ms() == streams[1].quantiles_ms()


class TestServerMetricsBounded:
    def test_endpoint_latency_memory_bounded(self):
        metrics = ServerMetrics()
        total = 3 * SAMPLE_WINDOW
        for n in range(total):
            metrics.record("api_run_query", 200, n / 1_000_000,
                           cache_hit=None, bytes_sent=10)
        stats = metrics._endpoints["api_run_query"]
        assert len(stats.latencies) <= SAMPLE_WINDOW
        assert stats.latencies.count == total
        assert stats.requests == total

    def test_snapshot_reports_p50_p95_p99(self):
        metrics = ServerMetrics()
        for n in range(100):
            metrics.record("healthz", 200, 0.001 * (n + 1),
                           cache_hit=None, bytes_sent=1)
        latency = metrics.snapshot()["endpoints"]["healthz"]["latency_ms"]
        assert set(latency) == {"mean", "p50", "p95", "p99"}
        assert latency["p50"] <= latency["p95"] <= latency["p99"]
        assert latency["p99"] > 0

    def test_stats_built_only_on_an_endpoints_first_request(
            self, monkeypatch):
        """``record`` builds an endpoint's stats (and their seeded
        reservoir) once, not as a throwaway default on every request."""
        from repro.server import metrics as metrics_module

        built = []

        class CountingStats(metrics_module.EndpointStats):
            def __init__(self, *args, **kwargs):
                built.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(metrics_module, "EndpointStats", CountingStats)
        metrics = ServerMetrics()
        metrics.record("healthz", 200, 0.001, cache_hit=None, bytes_sent=1)
        assert len(built) == 1
        for _ in range(5):
            metrics.record("healthz", 200, 0.001, cache_hit=None,
                           bytes_sent=1)
        assert len(built) == 1
        assert metrics.snapshot()["endpoints"]["healthz"]["requests"] == 6
