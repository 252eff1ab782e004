"""Self-test of the serving benchmark (a few seconds per workload).

Checks, for every workload in ``BENCHMARK.json``, that an untraced run
prints every end-to-end metric and a traced run every per-layer metric,
each with its declared unit; that no operation fails at the default
seed; that per-layer self times are non-negative; that the self times
of each request's spans, batch items run on the query pool included,
add up to its ``ThaliaApp.handle`` time, so no work is left out or
counted twice and layer time never exceeds the traced round trip; and
that the benchmark refuses to run without the program's sources.  Run
from the repository root::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SECONDS = "2"


def _run(workload: str, trace: int, cwd: Path = ROOT
         ) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / HERE.name / "run.py"), "--workload",
         workload, "--seconds", SECONDS, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def _result(process: subprocess.CompletedProcess) -> dict:
    if process.returncode != 0:
        raise AssertionError(f"run failed ({process.returncode}):\n"
                             f"{process.stdout}\n{process.stderr}")
    return json.loads(process.stdout.strip().splitlines()[-1])


def _check_metrics(result: dict, declared: list[dict], label: str) -> None:
    metrics = result["metrics"]
    names = [metric["name"] for metric in declared]
    assert sorted(metrics) == sorted(names), \
        f"{label}: printed {sorted(metrics)}, declared {sorted(names)}"
    for metric in declared:
        printed = metrics[metric["name"]]
        assert printed["unit"] == metric["unit"], \
            f"{label}: {metric['name']} in {printed['unit']}, " \
            f"declared {metric['unit']}"
        assert isinstance(printed["value"], (int, float)), \
            f"{label}: {metric['name']} is not a number"
    assert result["correct"] and result["failed"] == 0 \
        and result["attempted"] >= 1, \
        f"{label}: {result['failed']} of {result['attempted']} failed"


def _check_layers(workload: str, metrics: dict) -> None:
    values = {name: entry["value"] for name, entry in metrics.items()}
    for name, value in values.items():
        if name.endswith("ms"):
            assert value >= 0, f"{workload}: {name} = {value} < 0"
    assert values["tracing.rtt_ms"] > 0, f"{workload}: nothing traced"
    handle_ms = values["tracing.rtt_ms"] - values["server.transport.self_ms"]
    assert abs(values["tracing.attributed_ms"] - handle_ms) \
        <= 1e-6 * values["tracing.rtt_ms"], \
        f"{workload}: layer self times add up to " \
        f"{values['tracing.attributed_ms']} ms per request, handle took " \
        f"{handle_ms} ms"
    if workload == "hot":
        assert values["xquery.results.hit_ratio"] > 0.99, \
            "hot: result-cache misses"
    if workload == "cold":
        assert values["xquery.results.hit_ratio"] < 0.01 \
            and values["xquery.plan_cache.hit_ratio"] < 0.01, \
            "cold: cache hits"


def _check_refuses_without_sources() -> None:
    bare = ROOT / ".perfbench_run" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        process = _run("hot", 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert process.returncode != 0 and not process.stdout.strip(), \
        "a tree without the program's sources must fail without a result"


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in spec["workloads"]:
        name = workload["name"]
        _check_metrics(_result(_run(name, 0)), spec["end_to_end"],
                       f"{name} untraced")
        traced = _result(_run(name, 1))
        _check_metrics(traced, spec["per_layer"], f"{name} traced")
        _check_layers(name, traced["metrics"])
        print(f"ok {name}")
    _check_refuses_without_sources()
    print("ok refuses to run without sources")
    return 0


if __name__ == "__main__":
    sys.exit(main())
