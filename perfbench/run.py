"""Serving benchmark for ``thalia serve``: hot / cold / upload workloads.

Boots the real single-process ``thalia serve`` (``python3 -m repro.cli
--scale N serve``) from this checkout's ``src`` and drives it in a closed
loop over 2 persistent HTTP/1.1 connections from this one process for
``--seconds`` seconds, then checks the answers::

    python3 perfbench/run.py --workload hot --seed 1 --seconds 10 --trace 0

``--trace 0`` reports the end-to-end metrics of an untraced server.
``--trace 1`` runs the workload for half the window untraced and then
for half under ``perfbench/launcher.py`` (span tracing around each
layer's public functions), and reports the per-layer metrics of the
traced half plus the tracing overhead.  The last line of standard
output is one JSON object: ``{"correct", "attempted", "failed",
"metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Boots per ``--trace 0`` run.  ``setup_s`` is the least of their
#: server CPU times to the first ``/healthz`` 200 (see ``client.Server``):
#: on a shared 2-vCPU VM the same boot ran up to 2x slower for a minute
#: at a time, and the least of 11 boots repeated better than their median.
SETUP_BOOTS = 11


@dataclass
class Leg:
    """One measured window against one server; ``latencies`` holds
    ``(completed_ns, latency_ns)`` per operation kind."""

    attempted: int
    failed: int
    latencies: dict[str, list[tuple[int, int]]]
    sends: list[tuple[str, int, int]]
    window: tuple[int, int]

    @property
    def throughput_rps(self) -> float:
        """Completed requests per second over the window."""
        completed = sum(len(samples) for samples in self.latencies.values())
        return completed / ((self.window[1] - self.window[0]) / 1e9)

    def latency_ms(self, kind: str, fraction: float) -> float:
        """The *fraction* percentile of *kind* over the window."""
        return percentile_ms([latency for _, latency in self.latencies[kind]],
                             fraction)


def percentile_ms(samples: list[int], fraction: float) -> float:
    """Nearest-rank percentile of nanosecond samples, in ms."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(fraction * len(ordered)) - 1)] / 1e6


def measure(server, workload: str, seed: int, seconds: float,
            verifier) -> Leg:
    """Warm up, run the timed window, then check every answer kept."""
    from client import Connection, drive, expected_status
    from verify import wrong_replies
    from workload import CONNECTIONS, Stream, warmup_ops

    problems: list[str] = []
    uploads: list[tuple] = []
    connection = Connection(server.port)
    try:
        for op in warmup_ops(workload, seed):
            status, body = connection.request(op.method, op.path, op.body)
            if status != expected_status(op):
                problems.append(f"warm-up {op.path} answered {status}: "
                                f"{body[:300]!r}")
            elif op.kind == "upload":
                uploads.append(op.check)
    finally:
        connection.close()

    streams = [Stream(workload, seed, index) for index in range(CONNECTIONS)]
    results, start, end = drive(server.port, streams, seconds)

    latencies: dict[str, list[int]] = {}
    sends: list[tuple[str, int, int]] = []
    failed = len(problems)
    for result in results:
        failed += result.failed
        problems.extend(result.problems)
        for times, problem in wrong_replies(verifier, result.kept):
            failed += times
            problems.append(problem)
        uploads.extend(result.uploads)
        sends.extend(result.sends)
        for kind, samples in result.latencies.items():
            latencies.setdefault(kind, []).extend(samples)

    connection = Connection(server.port)
    try:
        status, body = connection.request("GET", "/api/honor-roll")
    finally:
        connection.close()
    expected = verifier.honor_roll(uploads)
    if status != 200 or json.loads(body) != expected:
        failed += 1
        problems.append(f"honor roll {body[:300]!r} != replay {expected!r}")
    for problem in problems[:10]:
        print(f"perfbench: {problem}", file=sys.stderr)
    return Leg(attempted=sum(result.attempted for result in results),
               failed=failed, latencies=latencies, sends=sends,
               window=(start, end))


def end_to_end(leg: Leg, setups: list[float], rss_mb: float
               ) -> dict[str, float]:
    metrics = {
        "setup_s": min(setups),
        "rss_mb": rss_mb,
        "throughput_rps": leg.throughput_rps,
    }
    # The p99 of queries and batches and the p90 of uploads are printed
    # above but not reported: on the hot workload they jump between
    # multiples of the interpreter's 5 ms thread switch interval from
    # run to run (quartile spread 0.4-0.7 of the median over ten seeds).
    for kind, fractions in (("query", (50,)), ("batch", (50,)),
                            ("join", (50,)), ("upload", (50,)),
                            ("page", (50, 90))):
        for percent in fractions:
            metrics[f"{kind}_p{percent}_ms"] = \
                leg.latency_ms(kind, percent / 100)
    return metrics


def run(workload: str, seed: int, seconds: float, trace: bool,
        run_dir: Path) -> tuple[list[Leg], dict[str, float]]:
    from client import Server
    from layers import layer_metrics
    from verify import Verifier
    from workload import WORKLOADS

    scale = WORKLOADS[workload]["scale"]
    verifier = Verifier(scale)
    if not trace:
        def boot(tag: str, count: int) -> list:
            servers = []
            for index in range(count):
                servers.append(Server(ROOT, run_dir, scale, f"{tag}{index}"))
                servers[-1].stop()
            return servers

        # Half the boots come before the timed window and half after it,
        # so that they sample the host's speed at two moments.
        boots = boot("before", SETUP_BOOTS // 2)
        server = Server(ROOT, run_dir, scale, "measure")
        boots.append(server)
        try:
            leg = measure(server, workload, seed, seconds, verifier)
            rss_mb = server.peak_rss_mb()
        finally:
            server.stop()
        boots += boot("after", SETUP_BOOTS - len(boots))
        print("# setup wall s: " + " ".join(
            f"{server.setup_wall_s:.3f}" for server in boots))
        print("# setup cpu s:  " + " ".join(
            f"{server.setup_cpu_s:.3f}" for server in boots))
        return [leg], end_to_end(leg, [server.setup_cpu_s for server in boots],
                                 rss_mb)

    # The two legs share the run's window, so a traced run takes no
    # longer than an untraced one.
    seconds /= 2
    server = Server(ROOT, run_dir, scale, "untraced")
    try:
        untraced = measure(server, workload, seed, seconds, verifier)
    finally:
        server.stop()
    spans = run_dir / "spans.json"
    server = Server(ROOT, run_dir, scale, "traced", spans=spans)
    try:
        traced = measure(server, workload, seed, seconds, verifier)
    finally:
        server.stop()
    layers = layer_metrics(json.loads(spans.read_text()), traced.sends,
                           traced.window)
    layers["tracing.overhead_rps"] = \
        untraced.throughput_rps - traced.throughput_rps
    return [untraced, traced], layers


def with_units(values: dict[str, float], declared: list[dict]) -> dict:
    """*values* with the units ``BENCHMARK.json`` declares for them."""
    names = [metric["name"] for metric in declared]
    if sorted(values) != sorted(names):
        raise RuntimeError(f"measured {sorted(values)}, "
                           f"BENCHMARK.json declares {sorted(names)}")
    return {metric["name"]: {"value": values[metric["name"]],
                             "unit": metric["unit"]} for metric in declared}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("hot", "cold", "upload"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"no THALIA source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    run_dir = ROOT / ".perfbench_run" / f"{args.workload}-{args.seed}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        legs, values = run(args.workload, args.seed, args.seconds,
                           bool(args.trace), run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    metrics = with_units(values, spec["per_layer" if args.trace
                                      else "end_to_end"])

    attempted = sum(leg.attempted for leg in legs)
    failed = sum(leg.failed for leg in legs)
    for kind, samples in sorted(legs[-1].latencies.items()):
        latencies = [latency for _, latency in samples]
        print(f"# {kind:<7} n={len(samples):<6} " + " ".join(
            f"p{percent}={percentile_ms(latencies, percent / 100):.3f}ms"
            for percent in (50, 90, 99)) + " (whole window)")
    print(f"# failed_frac={failed / attempted:.6f} "
          f"({failed} of {attempted})")
    for name, metric in metrics.items():
        print(f"# {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
