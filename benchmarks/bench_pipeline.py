"""Build pipeline flavors — cold vs cache-warm.

Times the two ways :func:`repro.catalogs.build_testbed` can produce the
full 25-source testbed: a cold build (the baseline every other bench
pays) and a cache-warm build that replays artifacts from the
content-addressed :class:`~repro.catalogs.ArtifactCache`.  The golden
suite asserts both are byte-identical; this bench asserts the cache is
actually a shortcut: a warm build must beat a cold one.
"""

import shutil
import tempfile
import time

from repro.catalogs import build_testbed

ROUNDS = 5


def _best_of(rounds, fn):
    best, result = float("inf"), None
    for _ in range(rounds):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def test_pipeline_flavors():
    cache_dir = tempfile.mkdtemp(prefix="thalia-bench-cache-")
    try:
        serial_s, serial = _best_of(ROUNDS, lambda: build_testbed())

        cold_s, cold = _best_of(1, lambda: build_testbed(cache_dir=cache_dir))
        warm_s, warm = _best_of(
            ROUNDS, lambda: build_testbed(cache_dir=cache_dir))

        rows = [
            ("serial cold", serial_s, serial),
            ("cache cold (populating)", cold_s, cold),
            ("cache warm", warm_s, warm),
        ]
        print("\n[pipeline] flavor                     seconds  hits  misses")
        for label, elapsed, testbed in rows:
            report = testbed.build_report
            print(f"  {label:<27} {elapsed:>8.4f}  {report.cache_hits:>4}  "
                  f"{report.cache_misses:>6}")
        print(f"  warm/cold speedup: {serial_s / warm_s:.2f}x "
              f"(best of {ROUNDS})")

        assert len(serial) == len(warm) == 25
        assert cold.build_report.cache_misses == 25
        assert warm.build_report.cache_hits == 25
        # The cache must be a shortcut, not a detour.
        assert warm_s < serial_s
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)


def test_pipeline_serial_baseline(benchmark):
    testbed = benchmark.pedantic(build_testbed, rounds=3, iterations=1)
    assert len(testbed) == 25


def test_pipeline_cache_warm(benchmark):
    cache_dir = tempfile.mkdtemp(prefix="thalia-bench-cache-")
    try:
        build_testbed(cache_dir=cache_dir)  # populate
        testbed = benchmark.pedantic(
            lambda: build_testbed(cache_dir=cache_dir),
            rounds=3, iterations=1)
        assert testbed.build_report.cache_hits == 25
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
