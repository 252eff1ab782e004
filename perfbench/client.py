"""Server process control and the closed-loop HTTP/1.1 load generator.

The load generator talks raw HTTP/1.1 over persistent sockets rather than
through ``http.client``: the client shares the host's cores with the
server, so every microsecond it spends parsing is taken from the
system under test.
"""

from __future__ import annotations

import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from workload import Op

BOOT_TIMEOUT_S = 120.0
STOP_TIMEOUT_S = 10.0
HERE = Path(__file__).resolve().parent

#: The server runs its batch items one at a time, and the load generator
#: never has two plan-executing requests in flight: two plan executions
#: running concurrently race in the plan module's resolver-cache eviction
#: (``_resolver_for`` raises ``KeyError``, answered as HTTP 500 about
#: once in 10,000 executions), and no benchmark request may fail.
SERVE_ARGS = ["--query-workers", "1"]

_URL = re.compile(rb"http://[0-9.]+:(\d+)")
_EXPECTED_STATUS = {"upload": 201}


class Connection:
    """One persistent HTTP/1.1 connection to the server."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=60)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader = self.sock.makefile("rb")

    def request(self, method: str, path: str, body: bytes = b"",
                rid: str = "-") -> tuple[int, bytes]:
        head = (f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                f"X-Request-Id: {rid}\r\nContent-Length: {len(body)}\r\n")
        if body:
            head += "Content-Type: application/json\r\n"
        self.sock.sendall(head.encode("ascii") + b"\r\n" + body)
        status_line = self.reader.readline()
        if not status_line:
            raise ConnectionError("server closed the connection")
        status = int(status_line.split(None, 2)[1])
        length = 0
        while True:
            line = self.reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        return status, self.reader.read(length) if length else b""

    def close(self) -> None:
        self.reader.close()
        self.sock.close()


class Server:
    """A ``thalia serve`` subprocess on an ephemeral port.

    ``setup_wall_s`` is process start to the first 200 from ``/healthz``
    on the monotonic clock; ``setup_cpu_s`` is the CPU time the server
    process spent over that interval, read from outside through its
    process CPU clock.  CPU time leaves out the time the server waits
    for a core (the load generator's probes, other processes, hypervisor
    steal).
    """

    def __init__(self, root: Path, run_dir: Path, scale: int, tag: str,
                 spans: Path | None = None) -> None:
        cli = ["--scale", str(scale), "serve", "--port", "0",
               "--scores", str(run_dir / f"{tag}.jsonl"), *SERVE_ARGS]
        if spans is None:
            argv = [sys.executable, "-m", "repro.cli", *cli]
        else:
            argv = [sys.executable, str(HERE / "launcher.py"),
                    "--spans", str(spans), "--", *cli]
        env = dict(os.environ, PYTHONPATH=str(root / "src"),
                   TMPDIR=str(run_dir))
        self.log = open(run_dir / f"{tag}.log", "wb")
        started = time.monotonic()
        self.process = subprocess.Popen(
            argv, cwd=root, env=env, stdout=subprocess.PIPE,
            stderr=self.log)
        try:
            self.port = self._read_port()
            self._wait_healthy(started)
            self.setup_wall_s = time.monotonic() - started
            self.setup_cpu_s = self.cpu_s()
        except BaseException:
            self.stop()
            raise

    def _read_port(self) -> int:
        line = self.process.stdout.readline()
        found = _URL.search(line)
        if found is None:
            raise RuntimeError(f"server did not announce a port: {line!r}")
        return int(found.group(1))

    def _wait_healthy(self, started: float) -> None:
        while time.monotonic() - started < BOOT_TIMEOUT_S:
            if self.process.poll() is not None:
                raise RuntimeError(
                    f"server exited with code {self.process.returncode}")
            try:
                connection = Connection(self.port)
            except ConnectionRefusedError:
                time.sleep(0.002)
                continue
            try:
                status, _ = connection.request("GET", "/healthz")
            finally:
                connection.close()
            if status == 200:
                return
            time.sleep(0.002)
        raise RuntimeError(f"server not healthy within {BOOT_TIMEOUT_S}s")

    def cpu_s(self) -> float:
        """CPU time of the whole server process so far (every thread,
        exited ones too), from its Linux process CPU clock id."""
        return time.clock_gettime_ns(((~self.process.pid) << 3) | 2) / 1e9

    def peak_rss_mb(self) -> float:
        """``VmHWM`` of the server process, in MiB."""
        status = Path(f"/proc/{self.process.pid}/status").read_text()
        kib = int(re.search(r"^VmHWM:\s+(\d+)\s+kB", status, re.M).group(1))
        return kib / 1024.0

    def stop(self) -> int:
        """SIGTERM (the server drains like on Ctrl-C) and wait for exit."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()
        self.log.close()
        return self.process.returncode


@dataclass
class ConnectionResult:
    """What one connection saw inside the timed window."""

    latencies: dict[str, list[tuple[int, int]]] = field(default_factory=dict)
    sends: list[tuple[str, int, int]] = field(default_factory=list)
    kept: dict[tuple, int] = field(default_factory=dict)
    uploads: list[tuple] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    last_ns: int = 0
    error: BaseException | None = None


def expected_status(op: Op) -> int:
    return _EXPECTED_STATUS.get(op.kind, 200)


def _loop(port: int, stream, index: int, ready: threading.Barrier,
          go: threading.Event, window: list[int], executing: threading.Lock,
          result: ConnectionResult) -> None:
    try:
        connection = Connection(port)
    except OSError as exc:
        result.error = exc
        ready.wait()
        return
    ready.wait()
    try:
        go.wait()
        deadline = window[1]
        latencies = result.latencies
        clock = time.monotonic_ns
        while clock() < deadline:
            op = next(stream)
            rid = f"{index}-{result.attempted}"
            if op.exclusive:
                executing.acquire()
            try:
                sent = clock()
                status, body = connection.request(op.method, op.path,
                                                  op.body, rid)
                done = clock()
            finally:
                if op.exclusive:
                    executing.release()
            result.attempted += 1
            latencies.setdefault(op.kind, []).append((done, done - sent))
            result.sends.append((rid, sent, done - sent))
            if status != expected_status(op):
                result.failed += 1
                result.problems.append(
                    f"{op.method} {op.path} answered {status}: {body[:300]!r}")
            elif op.kind == "upload":
                result.uploads.append(op.check)
            elif op.keep:
                key = (op.check, body)
                result.kept[key] = result.kept.get(key, 0) + 1
        result.last_ns = clock()
    except Exception as exc:  # reported by drive(); the run is then failed
        result.error = exc
    finally:
        connection.close()


def drive(port: int, streams: list, seconds: float
          ) -> tuple[list[ConnectionResult], int, int]:
    """Closed loop: each stream on its own persistent connection sends
    its next request as soon as the previous reply is read, until the
    window closes.  Returns ``(results, window_start_ns, window_end_ns)``
    on the system-wide monotonic clock.

    Exclusive requests (every request of the workloads that execute
    query plans or render pages, see ``workload.WORKLOADS``) are never
    in flight on both connections at once.  Latency is timed from when
    a request is sent, so it leaves out the wait for the other
    connection's request: that wait is this load generator's own.
    """
    ready = threading.Barrier(len(streams) + 1)
    executing = threading.Lock()
    go = threading.Event()
    window = [0, 0]
    results = [ConnectionResult() for _ in streams]
    threads = [threading.Thread(target=_loop,
                                args=(port, stream, index, ready, go, window,
                                      executing, results[index]))
               for index, stream in enumerate(streams)]
    for thread in threads:
        thread.start()
    ready.wait()                     # every connection is open
    window[0] = time.monotonic_ns()
    window[1] = window[0] + int(seconds * 1e9)
    go.set()
    for thread in threads:
        thread.join()
    for result in results:
        if result.error is not None:
            raise RuntimeError(f"load connection failed: {result.error!r}")
    return results, window[0], max(result.last_ns for result in results)
