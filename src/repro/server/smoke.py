"""End-to-end smoke drive of the benchmark service (CI's server job).

Boots ``thalia serve`` as a real subprocess on an ephemeral port, then
exercises the public surface over actual HTTP: home page, a catalog
page, a download bundle, query definitions, a ``POST /api/query`` run
(on a costed plan, as ``/api/stats`` must show before any explain),
a valid score upload, an inflated upload (must be rejected 422), a
malformed upload (400), honor-roll ordering, cache hit-rate visibility,
then over raw sockets a ``Content-Length`` over the body cap (413 and
close, no body sent), a chunked request (501 and close, body unread)
and two requests on one keep-alive connection, and
a graceful SIGINT shutdown with that connection still open and idle.
The server is then rebooted on the same score store to prove uploads
survive restarts.

A final leg reboots the service with ``--fleet 2`` and asserts that a
fleet answer matches the single-process bytes, that a repeat answers
``cached: true`` from the frontend without reaching a worker (the
``fleet`` block's ``dispatched`` does not move), that the block
publishes the admission and lifecycle counters (``shed``, ``respawns``,
``requeued``, ``timeouts``, ``failed``) with the right types, and that
the fleet drains cleanly on SIGINT.

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

from .app import MAX_BODY

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


CMU_QUERY = {"xquery": 'FOR $c IN doc("cmu.xml")/cmu/Course RETURN $c',
             "source": "cmu"}


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


def _scrubbed(body: bytes) -> dict:
    """A query answer without ``plan.exec_ns``, the one wall-clock field
    (each computing process measures its own run)."""
    answer = json.loads(body)
    answer.get("plan", {}).pop("exec_ns", None)
    return answer


def _fleet_stats(base: str) -> dict:
    _, _, body = _request(f"{base}/api/stats")
    return json.loads(body).get("fleet", {})


def _read_answer(reader) -> tuple[int, dict]:
    """Status and lower-cased headers of one response (body consumed)."""
    status = int(reader.readline().split()[1])
    headers = {}
    while (line := reader.readline()) not in (b"\r\n", b""):
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    reader.read(int(headers.get("content-length", 0)))
    return status, headers


def _transport_checks(port: int) -> socket.socket:
    """Raw-socket checks of the HTTP transport; returns a keep-alive
    connection left open and idle, which shutdown must not wait on."""
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock, \
            sock.makefile("rb") as reader:
        sock.sendall(f"POST /api/scores HTTP/1.1\r\nHost: smoke\r\n"
                     f"Content-Length: {MAX_BODY + 1}\r\n\r\n".encode())
        status, headers = _read_answer(reader)
        check(status == 413 and headers.get("connection") == "close"
              and reader.read() == b"",
              "Content-Length over the body cap answers 413 and closes, "
              "with no body sent")
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock, \
            sock.makefile("rb") as reader:
        sock.sendall(b"POST /api/query HTTP/1.1\r\nHost: smoke\r\n"
                     b"Transfer-Encoding: chunked\r\n\r\n2\r\n{}\r\n0\r\n\r\n")
        status, headers = _read_answer(reader)
        check(status == 501 and headers.get("connection") == "close"
              and reader.read() == b"",
              "a chunked request answers 501 and closes, its body unread")
    sock = socket.create_connection(("127.0.0.1", port), timeout=10)
    with sock.makefile("rb") as reader:
        statuses = []
        for path in ("/healthz", "/api/queries"):
            sock.sendall(f"GET {path} HTTP/1.1\r\nHost: smoke\r\n\r\n"
                         .encode())
            statuses.append(_read_answer(reader)[0])
    check(statuses == [200, 200], "one keep-alive socket serves two requests")
    return sock


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
    idle = None
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

        status, _, single_body = _post_json(f"{base}/api/query", CMU_QUERY)
        check(status == 200 and json.loads(single_body)["count"] >= 1,
              "POST /api/query runs an XQuery")

        status, _, body = _request(f"{base}/api/stats")
        planner = json.loads(body)["planner"]
        check(status == 200 and planner["costed_plans"] >= 1
              and planner["explains"] == 0,
              "POST /api/query runs a costed plan (no explain sent)")

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
        idle = _transport_checks(port)
    finally:
        _stop(process)
        if idle is not None:
            idle.close()
    print("  [ok] graceful shutdown on SIGINT with an idle keep-alive client")

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
    process = _boot(port, scores, extra_args=["--fleet", "2"])
    try:
        status, _, fleet_body = _post_json(f"{base}/api/query", CMU_QUERY)
        check(status == 200
              and _scrubbed(fleet_body) == _scrubbed(single_body),
              "POST /api/query on the fleet answers single-process bytes")
        dispatched = _fleet_stats(base).get("dispatched")
        status, _, body = _post_json(f"{base}/api/query", CMU_QUERY)
        check(status == 200 and json.loads(body)["cached"] is True,
              "a repeated POST /api/query on the fleet answers cached")
        fleet = _fleet_stats(base)
        check(isinstance(dispatched, int)
              and fleet.get("dispatched") == dispatched,
              "the repeat is answered without a worker (dispatched "
              "unchanged)")
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
