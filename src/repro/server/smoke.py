"""End-to-end smoke drive of the benchmark service (CI's server job).

Boots ``thalia serve`` as a real subprocess on an ephemeral port, then
exercises the public surface over actual HTTP: home page, a catalog
page, a download bundle, query definitions, a ``POST /api/query`` run,
a valid score upload, an inflated upload (must be rejected 422), a
malformed upload (400), honor-roll ordering, cache hit-rate visibility,
and a graceful SIGINT shutdown.  The server is then rebooted on the same
score store to prove uploads survive restarts.

A final leg reboots the service with ``--fleet 2`` and asserts the
``fleet`` block of ``/api/stats`` publishes the admission and
lifecycle counters (``shed``, ``respawns``, ``requeued``, ``timeouts``,
``failed``) with the right types, that fleet answers match single-process bytes, and that the
fleet drains cleanly on SIGINT.

Run it locally with::

    PYTHONPATH=src python -m repro.server.smoke
"""

from __future__ import annotations

import gzip
import json
import signal
import socket
import subprocess
import sys
import tempfile
import time
import urllib.error
import urllib.request
from pathlib import Path

BOOT_TIMEOUT_S = 300.0


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def _request(url: str, data: bytes | None = None,
             headers: dict | None = None) -> tuple[int, dict, bytes]:
    req = urllib.request.Request(url, data=data,
                                 headers=headers or {},
                                 method="POST" if data is not None
                                 else "GET")
    try:
        with urllib.request.urlopen(req, timeout=30) as resp:
            return resp.status, dict(resp.headers), resp.read()
    except urllib.error.HTTPError as exc:
        return exc.code, dict(exc.headers), exc.read()


def _post_json(url: str, payload: dict) -> tuple[int, dict, bytes]:
    return _request(url, data=json.dumps(payload).encode("utf-8"),
                    headers={"Content-Type": "application/json"})


def _card(system: str, correct: int, effort: str = "LOW") -> dict:
    outcomes = []
    for number in range(1, 13):
        good = number <= correct
        outcomes.append({"number": number, "supported": good,
                         "correct": good,
                         "effort": effort if good else None,
                         "note": "smoke"})
    return {"system": system, "outcomes": outcomes}


def _wait_for(url: str, process: subprocess.Popen,
              timeout_s: float = BOOT_TIMEOUT_S) -> None:
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if process.poll() is not None:
            raise SystemExit(
                f"server exited early with code {process.returncode}")
        try:
            status, _, _ = _request(url)
            if status == 200:
                return
        except (urllib.error.URLError, ConnectionError, OSError):
            pass
        time.sleep(0.25)
    raise SystemExit(f"server did not come up within {timeout_s}s")


def _boot(port: int, scores: Path,
          extra_args: list[str] | None = None) -> subprocess.Popen:
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve",
         "--port", str(port), "--scores", str(scores),
         *(extra_args or [])],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    _wait_for(f"http://127.0.0.1:{port}/healthz", process)
    return process


def _stop(process: subprocess.Popen) -> None:
    process.send_signal(signal.SIGINT)
    try:
        process.wait(timeout=30)
    except subprocess.TimeoutExpired:
        process.kill()
        raise SystemExit("server did not shut down cleanly on SIGINT")
    if process.returncode != 0:
        print(process.stdout.read() if process.stdout else "")
        raise SystemExit(
            f"server exited with code {process.returncode} on SIGINT")


def check(condition: bool, label: str) -> None:
    marker = "ok" if condition else "FAIL"
    print(f"  [{marker}] {label}")
    if not condition:
        raise SystemExit(f"smoke check failed: {label}")


def main() -> int:
    port = _free_port()
    scores = Path(tempfile.mkdtemp(prefix="thalia-smoke-")) / "roll.jsonl"
    base = f"http://127.0.0.1:{port}"
    print(f"booting thalia serve on {base} ...")
    process = _boot(port, scores)
    try:
        status, headers, body = _request(f"{base}/")
        check(status == 200 and b"THALIA" in body, "GET / serves home page")
        etag = headers.get("ETag", "")
        check(bool(etag), "home page carries an ETag")

        status, _, _ = _request(f"{base}/", headers={"If-None-Match": etag})
        check(status == 304, "conditional GET answers 304")

        status, headers, body = _request(
            f"{base}/", headers={"Accept-Encoding": "gzip"})
        check(headers.get("Content-Encoding") == "gzip"
              and b"THALIA" in gzip.decompress(body),
              "gzip transfer encoding round-trips")

        status, _, body = _request(f"{base}/catalogs/cmu.html")
        check(status == 200 and b"Catalog snapshot" in body,
              "GET /catalogs/cmu.html serves the snapshot")

        status, _, body = _request(
            f"{base}/downloads/thalia_catalogs.zip")
        check(status == 200 and body[:2] == b"PK",
              "GET catalog bundle serves a zip")

        status, _, body = _request(f"{base}/api/queries")
        check(status == 200 and len(json.loads(body)) == 12,
              "GET /api/queries lists all twelve queries")

        status, _, body = _post_json(f"{base}/api/query", {
            "xquery": 'FOR $c IN doc("cmu.xml")/cmu/Course RETURN $c',
            "source": "cmu"})
        check(status == 200 and json.loads(body)["count"] >= 1,
              "POST /api/query runs an XQuery")

        status, _, body = _post_json(f"{base}/api/scores", {
            "submitter": "smoke", "date": "2004-08-01",
            "claimed": {"correct": 9, "complexity": 9},
            "card": _card("SmokeSystem", 9)})
        check(status == 201, "valid score card accepted (201)")

        status, _, body = _post_json(f"{base}/api/scores", {
            "submitter": "smoke", "date": "2004-08-02",
            "claimed": {"correct": 12, "complexity": 0},
            "card": _card("Braggart", 5)})
        check(status == 422 and json.loads(body)["rejected"],
              "inflated score card rejected (422)")

        status, _, _ = _post_json(f"{base}/api/scores",
                                  {"submitter": "smoke",
                                   "card": {"system": "Broken"}})
        check(status == 400, "malformed score card rejected (400)")

        status, _, _ = _post_json(f"{base}/api/scores", {
            "submitter": "smoke", "date": "2004-08-03",
            "card": _card("BetterSystem", 11, effort="NONE")})
        check(status == 201, "second valid card accepted")

        status, _, body = _request(f"{base}/api/honor-roll")
        roll = json.loads(body)
        check([entry["system"] for entry in roll]
              == ["BetterSystem", "SmokeSystem"],
              "honor roll ranks higher score first")

        status, _, body = _request(f"{base}/honor-roll")
        check(status == 200
              and body.index(b"BetterSystem") < body.index(b"SmokeSystem"),
              "live /honor-roll page shows ranked entries")

        _request(f"{base}/api/queries")   # guarantee a warm repeat
        status, _, body = _request(f"{base}/api/stats")
        stats = json.loads(body)
        check(stats["totals"]["cache_hits"] > 0
              and stats["content_cache"]["hit_rate"] > 0,
              "warm-cache hit-rate visible at /api/stats")
    finally:
        _stop(process)
    print("  [ok] graceful shutdown on SIGINT")

    print("rebooting on the same score store ...")
    process = _boot(port, scores)
    try:
        _, _, body = _request(f"{base}/api/honor-roll")
        roll = json.loads(body)
        check([entry["system"] for entry in roll]
              == ["BetterSystem", "SmokeSystem"],
              "honor roll survives a restart, still ranked")
    finally:
        _stop(process)
    print("  [ok] graceful shutdown on SIGINT")

    print("rebooting with a 2-worker fleet ...")
    query = {"xquery": 'FOR $c IN doc("cmu.xml")/cmu/Course RETURN $c',
             "source": "cmu"}
    process = _boot(port, scores, extra_args=["--fleet", "2"])
    try:
        status, _, fleet_body = _post_json(f"{base}/api/query", query)
        check(status == 200 and json.loads(fleet_body)["count"] >= 1,
              "POST /api/query executes on the fleet")
        status, _, body = _request(f"{base}/api/stats")
        fleet = json.loads(body).get("fleet", {})
        check(fleet.get("enabled") is True and fleet.get("workers") == 2,
              "/api/stats fleet block reports 2 workers")
        for counter in ("shed", "respawns", "requeued", "timeouts",
                        "failed"):
            check(isinstance(fleet.get(counter), int),
                  f"fleet counter '{counter}' present and integral")
        check(isinstance(fleet.get("slo"), dict)
              and all(isinstance(row.get("latency_ms"), dict)
                      for row in fleet["slo"].values()),
              "fleet SLO table publishes per-endpoint latency quantiles")
        check(isinstance(fleet.get("shared_cache"), dict)
              and fleet["shared_cache"].get("stores", 0) >= 0,
              "fleet shared-cache counters present")
        check(len(fleet.get("per_worker", [])) == 2
              and all(isinstance(row.get("rss_kb"), int)
                      for row in fleet["per_worker"]),
              "per-worker CPU/RSS self-reports present")
    finally:
        _stop(process)
    print("  [ok] fleet drains gracefully on SIGINT")
    print("server smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
