"""Two-stage load harness for the benchmark service: fleet vs single.

Stage 1 (**pilot**) boots a fleet server and a single-process server as
real subprocesses on one scale tier and

* replays a mixed query corpus against both and requires every response
  byte-identical (after removing ``plan.exec_ns``, the one legitimately
  run-local wall-clock field);
* kills one fleet worker mid-replay and requires zero failed requests,
  at least one respawn, and a nonzero shared-cache hit count (the
  respawned worker must re-serve its dead predecessor's results from
  the cross-process arena, not recompute them);
* calibrates the measurement stage from observed latency: the target
  offered rate and the ``/api/stats`` sampling interval.

Stage 2 (**measurement**) drives mixed traffic — ``POST /api/query``,
``POST /api/query/batch``, ``POST /api/scores`` uploads and scenario-
pack downloads — from persistent-connection client threads against each
server, reports client-side p50/p95/p99 latency and aggregate query
throughput, scrapes the fleet's SLO table at the calibrated interval,
and computes the fleet-vs-single speedup.

The report is stamped with the ``thalia-perf`` envelope
(``stamp(KIND_BENCH, ...)``) so ``thalia perf`` tooling can diff server
runs; the repo's ``BENCH_fleet.json`` records the committed run.

Usage::

    PYTHONPATH=src python benchmarks/bench_server.py             # full
    PYTHONPATH=src python benchmarks/bench_server.py \\
        --pilot-only --scale 4 --fleet 2                         # CI

The full run at ``--scale 32`` enforces the >=3x fleet-throughput
target for a 4-worker fleet — on hosts with >= 4 cores; on smaller
hosts the speedup is recorded but not enforced (there is nothing to
saturate).
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time
from http.client import HTTPConnection, HTTPException
from pathlib import Path

from repro.core import QUERIES
from repro.server.metrics import percentile

BOOT_TIMEOUT_S = 600.0

#: Ad-hoc per-source queries: sharded traffic with per-source variety,
#: so the fleet's (scale, document) sharding actually spreads work.
SOURCE_SLUGS = ("cmu", "brown", "ucsd", "umich", "gatech", "umd",
                "toronto", "asu")

#: Measurement traffic mix, one entry per round-robin slot.
MIX = ("query", "query", "query", "query", "batch", "batch",
       "scores", "scenario", "query_all", "batch")


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def _card(system: str, correct: int) -> dict:
    outcomes = []
    for number in range(1, 13):
        good = number <= correct
        outcomes.append({"number": number, "supported": good,
                         "correct": good,
                         "effort": "LOW" if good else None,
                         "note": "bench"})
    return {"system": system, "outcomes": outcomes}


class Client:
    """One persistent HTTP/1.1 connection with JSON helpers."""

    def __init__(self, port: int) -> None:
        self.connection = HTTPConnection("127.0.0.1", port, timeout=120)

    def request(self, method: str, path: str,
                payload: dict | None = None) -> tuple[int, bytes]:
        body = None if payload is None \
            else json.dumps(payload).encode("utf-8")
        headers = {} if body is None \
            else {"Content-Type": "application/json"}
        self.connection.request(method, path, body=body, headers=headers)
        response = self.connection.getresponse()
        return response.status, response.read()

    def close(self) -> None:
        self.connection.close()


class ServerProcess:
    """A ``thalia serve`` subprocess on an ephemeral port."""

    def __init__(self, *, seed: int, scale: int, fleet: int,
                 cache_dir: str, scores_dir: str, label: str) -> None:
        self.label = label
        self.port = _free_port()
        scores = Path(scores_dir) / f"roll-{label}.jsonl"
        command = [sys.executable, "-m", "repro.cli",
                   "--seed", str(seed), "--scale", str(scale),
                   "--workers", "2", "--cache-dir", cache_dir,
                   "serve", "--port", str(self.port),
                   "--scores", str(scores), "--http-threads", "16"]
        if fleet > 0:
            command += ["--fleet", str(fleet)]
        self.process = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True)
        self._wait_ready()

    def _wait_ready(self) -> None:
        deadline = time.monotonic() + BOOT_TIMEOUT_S
        while time.monotonic() < deadline:
            if self.process.poll() is not None:
                raise SystemExit(
                    f"[bench_server] {self.label} server exited early "
                    f"({self.process.returncode}):\n"
                    f"{self.process.stdout.read()}")
            try:
                client = Client(self.port)
                status, _ = client.request("GET", "/healthz")
                client.close()
                if status == 200:
                    return
            except (OSError, HTTPException):
                pass
            time.sleep(0.25)
        raise SystemExit(f"[bench_server] {self.label} server did not "
                         f"come up within {BOOT_TIMEOUT_S}s")

    def stats(self) -> dict:
        client = Client(self.port)
        _, body = client.request("GET", "/api/stats")
        client.close()
        return json.loads(body)

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.process.kill()


def query_corpus(scale: int) -> list[dict]:
    """The deterministic mixed corpus both stages draw from."""
    corpus = [{"xquery": query.xquery} for query in QUERIES]
    for slug in SOURCE_SLUGS:
        corpus.append({
            "xquery": f'FOR $c IN doc("{slug}.xml")/{slug}/Course '
                      f'RETURN $c', "source": slug})
        corpus.append({
            "xquery": f'FOR $c IN doc("{slug}.xml")/{slug}/Course '
                      f'WHERE $c/Instructor != "" RETURN $c/Title',
            "source": slug})
    del scale      # the corpus is scale-independent; answers are not
    return corpus


def normalized(body: bytes) -> str:
    """Canonical JSON with run-local wall-clock fields removed."""
    payload = json.loads(body)

    def scrub(node) -> None:
        if isinstance(node, dict):
            plan = node.get("plan")
            if isinstance(plan, dict):
                plan.pop("exec_ns", None)
            for value in node.values():
                scrub(value)
        elif isinstance(node, list):
            for value in node:
                scrub(value)

    scrub(payload)
    return json.dumps(payload, sort_keys=True)


# --------------------------------------------------------------------------- #
# Stage 1: pilot
# --------------------------------------------------------------------------- #

def run_pilot(fleet_server: ServerProcess, single_server: ServerProcess,
              scale: int, kill_worker: bool) -> dict:
    corpus = query_corpus(scale)
    mismatches = []
    latencies: list[float] = []
    fleet_client = Client(fleet_server.port)
    single_client = Client(single_server.port)

    # Byte-identity sweep: every corpus item, cold and warm, plus one
    # batch — the cache progression (cached false -> true) must match.
    for round_index in range(2):
        for index, payload in enumerate(corpus):
            started = time.perf_counter()
            f_status, f_body = fleet_client.request(
                "POST", "/api/query", payload)
            latencies.append(time.perf_counter() - started)
            s_status, s_body = single_client.request(
                "POST", "/api/query", payload)
            if (f_status, normalized(f_body)) \
                    != (s_status, normalized(s_body)):
                mismatches.append(
                    {"round": round_index, "item": index,
                     "fleet_status": f_status, "single_status": s_status})
    batch = {"queries": corpus[:8]}
    f_status, f_body = fleet_client.request("POST", "/api/query/batch",
                                            batch)
    s_status, s_body = single_client.request("POST", "/api/query/batch",
                                             batch)
    if (f_status, normalized(f_body)) != (s_status, normalized(s_body)):
        mismatches.append({"batch": True, "fleet_status": f_status,
                           "single_status": s_status})

    kill_report = None
    if kill_worker:
        fleet_block = fleet_server.stats()["fleet"]
        victim = fleet_block["per_worker"][0]["pid"]
        os.kill(victim, signal.SIGKILL)
        failed = 0
        for payload in corpus:
            status, _body = fleet_client.request("POST", "/api/query",
                                                 payload)
            if status >= 500:
                failed += 1
        after = fleet_server.stats()["fleet"]
        kill_report = {
            "killed_pid": victim,
            "requests_after_kill": len(corpus),
            "failed_requests": failed,
            "respawns": after["respawns"],
            "shared_cache_hits": after["shared_cache"]["hits"],
        }

    fleet_client.close()
    single_client.close()

    mean_s = sum(latencies) / len(latencies)
    # Target rate: keep every fleet worker busy with headroom; sampling
    # interval: ~50 requests between scrapes, clamped to something a
    # human can watch.
    target_rate = max(1.0, 1.0 / mean_s)
    sampling_interval = min(2.0, max(0.25, 50 * mean_s))
    return {
        "requests": len(latencies),
        "mean_ms": round(1000 * mean_s, 3),
        "p95_ms": round(1000 * percentile(latencies, 0.95), 3),
        "target_rate_rps": round(target_rate, 1),
        "sampling_interval_s": round(sampling_interval, 3),
        "byte_identical": not mismatches,
        "mismatches": mismatches[:10],
        "kill": kill_report,
    }


# --------------------------------------------------------------------------- #
# Stage 2: measurement
# --------------------------------------------------------------------------- #

def _drive(server: ServerProcess, *, clients: int, rounds: int,
           scale: int, scenario_url: str | None,
           sampling_interval_s: float,
           scrape: bool) -> dict:
    corpus = query_corpus(scale)
    per_endpoint: dict[str, list[float]] = {}
    counters = {"requests": 0, "queries": 0, "errors": 0, "shed": 0}
    lock = threading.Lock()
    stop_sampler = threading.Event()
    scrapes: list[dict] = []

    def sampler() -> None:
        while not stop_sampler.wait(sampling_interval_s):
            try:
                scrapes.append(server.stats().get("fleet", {}))
            except (OSError, HTTPException, ValueError):
                pass

    def worker(thread_index: int) -> None:
        client = Client(server.port)
        local: dict[str, list[float]] = {}
        local_counts = {"requests": 0, "queries": 0, "errors": 0,
                        "shed": 0}
        for round_index in range(rounds):
            slot = MIX[(thread_index + round_index) % len(MIX)]
            pick = corpus[(thread_index * rounds + round_index)
                          % len(corpus)]
            if slot == "query":
                method, path, payload, weight = \
                    "POST", "/api/query", pick, 1
            elif slot == "query_all":
                method, path, payload, weight = "POST", "/api/query", \
                    {"xquery": QUERIES[round_index % 12].xquery}, 1
            elif slot == "batch":
                start = (thread_index + round_index) % len(corpus)
                items = [corpus[(start + n) % len(corpus)]
                         for n in range(8)]
                method, path, payload, weight = \
                    "POST", "/api/query/batch", {"queries": items}, 8
            elif slot == "scores":
                method, path, weight = "POST", "/api/scores", 0
                payload = {
                    "submitter": "bench",
                    "date": "2004-08-01",
                    "card": _card(
                        f"Bench-{thread_index}-{round_index % 7}",
                        5 + round_index % 7)}
            else:   # scenario-pack download
                if scenario_url is None:
                    continue
                method, path, payload, weight = \
                    "GET", scenario_url, None, 0
            started = time.perf_counter()
            try:
                status, _body = client.request(method, path, payload)
            except (OSError, HTTPException):
                local_counts["errors"] += 1
                client.close()
                client = Client(server.port)
                continue
            elapsed = time.perf_counter() - started
            local.setdefault(slot, []).append(elapsed)
            local_counts["requests"] += 1
            if status == 429:
                local_counts["shed"] += 1
            elif status >= 500:
                local_counts["errors"] += 1
            else:
                local_counts["queries"] += weight
        client.close()
        with lock:
            for slot, samples in local.items():
                per_endpoint.setdefault(slot, []).extend(samples)
            for key, value in local_counts.items():
                counters[key] += value

    sampler_thread = None
    if scrape:
        sampler_thread = threading.Thread(target=sampler, daemon=True)
        sampler_thread.start()
    wall_start = time.perf_counter()
    threads = [threading.Thread(target=worker, args=(index,))
               for index in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall_s = time.perf_counter() - wall_start
    stop_sampler.set()
    if sampler_thread is not None:
        sampler_thread.join(timeout=10)

    latency_table = {}
    for slot, samples in sorted(per_endpoint.items()):
        latency_table[slot] = {
            "count": len(samples),
            "p50_ms": round(1000 * percentile(samples, 0.50), 3),
            "p95_ms": round(1000 * percentile(samples, 0.95), 3),
            "p99_ms": round(1000 * percentile(samples, 0.99), 3),
        }
    return {
        **counters,
        "wall_s": round(wall_s, 3),
        "requests_per_s": round(counters["requests"] / wall_s, 1),
        "queries_per_s": round(counters["queries"] / wall_s, 1),
        "client_latency": latency_table,
        "stats_scrapes": len(scrapes),
        "final_fleet_block": scrapes[-1] if scrapes else None,
    }


def _make_scenario(server: ServerProcess) -> str | None:
    client = Client(server.port)
    status, body = client.request("POST", "/api/scenarios",
                                  {"seed": 7, "cases": 3})
    client.close()
    if status != 201:
        return None
    return json.loads(body)["url"]


# --------------------------------------------------------------------------- #
# Orchestration
# --------------------------------------------------------------------------- #

def run_bench(args) -> tuple[dict, list[str]]:
    cache_dir = tempfile.mkdtemp(prefix="thalia-bench-cache-")
    scores_dir = tempfile.mkdtemp(prefix="thalia-bench-scores-")
    cpus = os.cpu_count() or 1
    report: dict = {
        "bench": "bench_server",
        "mode": "pilot" if args.pilot_only else "full",
        "host": {"cpus": cpus},
        "config": {
            "seed": args.seed,
            "scale": args.scale,
            "fleet": args.fleet,
            "clients": args.clients,
            "rounds": args.rounds,
            "kill_worker": args.kill_worker,
        },
    }
    failures: list[str] = []

    print(f"[bench_server] booting single-process server "
          f"(scale {args.scale}) ...", flush=True)
    single = ServerProcess(seed=args.seed, scale=args.scale, fleet=0,
                           cache_dir=cache_dir, scores_dir=scores_dir,
                           label="single")
    print(f"[bench_server] booting {args.fleet}-worker fleet server ...",
          flush=True)
    fleet = ServerProcess(seed=args.seed, scale=args.scale,
                          fleet=args.fleet, cache_dir=cache_dir,
                          scores_dir=scores_dir, label="fleet")
    try:
        print("[bench_server] pilot: byte-identity sweep + calibration",
              flush=True)
        pilot = run_pilot(fleet, single, args.scale, args.kill_worker)
        report["pilot"] = pilot
        if not pilot["byte_identical"]:
            failures.append(
                f"{len(pilot['mismatches'])}+ fleet responses diverged "
                f"from single-process bytes")
        kill = pilot["kill"]
        if kill is not None:
            if kill["failed_requests"]:
                failures.append(
                    f"{kill['failed_requests']} request(s) failed after "
                    f"killing worker {kill['killed_pid']}")
            if kill["respawns"] < 1:
                failures.append("killed worker was not respawned")
            if kill["shared_cache_hits"] < 1:
                failures.append("respawned worker produced no "
                                "shared-cache hits")

        if not args.pilot_only:
            interval = pilot["sampling_interval_s"]
            print(f"[bench_server] measurement: {args.clients} clients x "
                  f"{args.rounds} rounds, sampling every {interval}s",
                  flush=True)
            scenario_url = _make_scenario(fleet)
            _make_scenario(single)
            fleet_run = _drive(fleet, clients=args.clients,
                               rounds=args.rounds, scale=args.scale,
                               scenario_url=scenario_url,
                               sampling_interval_s=interval, scrape=True)
            single_run = _drive(single, clients=args.clients,
                                rounds=args.rounds, scale=args.scale,
                                scenario_url=scenario_url,
                                sampling_interval_s=interval,
                                scrape=False)
            speedup = fleet_run["queries_per_s"] \
                / max(single_run["queries_per_s"], 0.001)
            report["measurement"] = {
                "fleet": fleet_run,
                "single": single_run,
                "speedup_fleet_vs_single": round(speedup, 2),
            }
            if fleet_run["errors"] or single_run["errors"]:
                failures.append(
                    f"measurement saw {fleet_run['errors']} fleet / "
                    f"{single_run['errors']} single-process errors")
            # The >=3x target needs cores to saturate: enforced only on
            # a >=4-core host driving a >=4-worker fleet.
            if cpus >= 4 and args.fleet >= 4 and speedup < 3.0:
                failures.append(
                    f"fleet speedup x{round(speedup, 2)} is below the "
                    f"3x target on a {cpus}-core host")

        report["slo"] = fleet.stats()["fleet"]
    finally:
        fleet.stop()
        single.stop()
    return report, failures


def _print_report(report: dict) -> None:
    pilot = report["pilot"]
    print(f"[bench_server] pilot: {pilot['requests']} requests, "
          f"mean {pilot['mean_ms']}ms p95 {pilot['p95_ms']}ms, "
          f"byte_identical={pilot['byte_identical']}")
    if pilot["kill"]:
        kill = pilot["kill"]
        print(f"  worker kill: {kill['failed_requests']} failed / "
              f"{kill['requests_after_kill']} after SIGKILL, "
              f"{kill['respawns']} respawn(s), "
              f"{kill['shared_cache_hits']} shared-cache hit(s)")
    measurement = report.get("measurement")
    if measurement:
        print(f"  {'mode':<8} {'req/s':>8} {'queries/s':>10} "
              f"{'shed':>6} {'errors':>7}")
        for mode in ("single", "fleet"):
            run = measurement[mode]
            print(f"  {mode:<8} {run['requests_per_s']:>8} "
                  f"{run['queries_per_s']:>10} {run['shed']:>6} "
                  f"{run['errors']:>7}")
        print(f"  speedup fleet vs single: "
              f"x{measurement['speedup_fleet_vs_single']}")
    slo = report["slo"]
    if slo.get("enabled"):
        print(f"  fleet SLO: shed={slo['shed']} "
              f"respawns={slo['respawns']}")
        for endpoint, row in slo.get("slo", {}).items():
            latency = row["latency_ms"]
            print(f"    {endpoint:<10} p50 {latency['p50']}ms "
                  f"p95 {latency['p95']}ms p99 {latency['p99']}ms "
                  f"shed_rate {row['shed_rate']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Two-stage load harness: worker fleet vs "
                    "single-process serving.")
    parser.add_argument("--seed", type=int, default=2004)
    parser.add_argument("--scale", type=int, default=32,
                        help="testbed scale tier (default 32; CI pilots "
                             "at 4)")
    parser.add_argument("--fleet", type=int, default=4,
                        help="fleet worker count (default 4)")
    parser.add_argument("--clients", type=int, default=8,
                        help="measurement client threads (default 8)")
    parser.add_argument("--rounds", type=int, default=40,
                        help="requests per client thread (default 40)")
    parser.add_argument("--pilot-only", action="store_true",
                        help="run calibration + byte-identity + worker-"
                             "kill only (CI server-smoke)")
    parser.add_argument("--no-kill", dest="kill_worker",
                        action="store_false",
                        help="skip the worker-kill resilience step")
    parser.add_argument("--out", default=None, metavar="FILE",
                        help="write the stamped JSON report here "
                             "(default: BENCH_fleet.json at the repo "
                             "root)")
    args = parser.parse_args(argv)

    report, failures = run_bench(args)
    report["failures"] = failures

    out = Path(args.out) if args.out else \
        Path(__file__).resolve().parent.parent / "BENCH_fleet.json"
    from repro.perf.schema import KIND_BENCH, stamp
    out.write_text(json.dumps(stamp(KIND_BENCH, report), indent=2) + "\n",
                   encoding="utf-8")
    _print_report(report)
    print(f"[bench_server] -> {out}")
    for failure in failures:
        print(f"[bench_server] FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
