"""The program under test as a child process, and the two wire clients.

:class:`Server` starts ``repro-serve`` (the program's own ``serve_main``)
or, for traced runs, the same entry point through ``launcher.py``; it
reads the ready banners, waits for ``GET /healthz`` to answer 200, and
reads the child's memory high-water mark and CPU time from ``/proc``.
"""

from __future__ import annotations

import http.client
import json
import os
import selectors
import signal
import socket
import subprocess
import sys
import time
from typing import Any

HERE = os.path.dirname(os.path.abspath(__file__))
BOOT = ("import sys; from repro.cli import serve_main; "
        "sys.exit(serve_main(sys.argv[1:]))")
START_TIMEOUT = 60.0


class ServerError(RuntimeError):
    """The child failed to start, answer, or dump its spans."""


class Server:
    """One ``repro-serve`` child on ephemeral ports.

    ``--http`` is always on (readiness is ``/healthz``); ``tcp=True`` adds
    the JSON-lines TCP transport.  With *spans_dir*, the child runs under
    the span-recording launcher and :meth:`dump_spans` collects its spans.
    A non-empty *cpus* pins the child to those CPUs.
    """

    def __init__(
        self,
        root: str,
        data_dir: str,
        *,
        tcp: bool,
        spans_dir: str | None = None,
        log_path: str,
        cpus: set[int] = frozenset(),
    ) -> None:
        self.root = root
        self.data_dir = data_dir
        self.tcp = tcp
        self.spans_dir = spans_dir
        self.log_path = log_path
        self.proc: subprocess.Popen | None = None
        self.http_port = 0
        self.tcp_port = 0
        self.cpus = cpus

    def start(self) -> float:
        """Spawn and wait until ``/healthz`` answers 200; returns the
        seconds from spawn to that first 200."""
        if self.proc is not None:
            raise ServerError("server already running")
        args = ["--http", "127.0.0.1:0", "--data-dir", self.data_dir,
                "--fsync", "always"]
        if self.tcp:
            args += ["--tcp", "127.0.0.1:0"]
        if self.spans_dir is not None:
            command = [sys.executable, os.path.join(HERE, "launcher.py"),
                       self.spans_dir] + args
        else:
            command = [sys.executable, "-c", BOOT] + args
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(self.root, "src")
        env.pop("REPRO_FAULTS", None)
        env["PYTHONHASHSEED"] = "0"
        started = time.perf_counter()
        with open(self.log_path, "ab") as log:
            self.proc = subprocess.Popen(
                command, cwd=self.root, env=env, stdout=subprocess.PIPE,
                stderr=log, stdin=subprocess.DEVNULL,
            )
        try:
            if self.cpus:
                os.sched_setaffinity(self.proc.pid, self.cpus)
            self._read_banners(started + START_TIMEOUT)
            while True:
                status, _ = self.get("/healthz")
                if status == 200:
                    return time.perf_counter() - started
                if time.perf_counter() > started + START_TIMEOUT:
                    raise ServerError("healthz never reached 200")
                time.sleep(0.005)
        except BaseException:
            self.kill()
            raise

    def _read_banners(self, deadline: float) -> None:
        want = 2 if self.tcp else 1
        fd = self.proc.stdout.fileno()
        pending = b""
        with selectors.DefaultSelector() as selector:
            selector.register(fd, selectors.EVENT_READ)
            while want:
                if b"\n" not in pending:
                    remaining = deadline - time.perf_counter()
                    if remaining <= 0 or not selector.select(remaining):
                        raise ServerError("no ready banner in time")
                    chunk = os.read(fd, 65536)
                    if not chunk:
                        raise ServerError(
                            "server exited with %r before ready; see %s"
                            % (self.proc.wait(), self.log_path)
                        )
                    pending += chunk
                    continue
                line, pending = pending.split(b"\n", 1)
                banner = json.loads(line)
                if banner.get("transport") == "http":
                    self.http_port = banner["port"]
                else:
                    self.tcp_port = banner["port"]
                want -= 1

    @property
    def pid(self) -> int:
        return self.proc.pid

    def get(self, path: str) -> tuple[int, bytes]:
        """One GET on a fresh connection."""
        connection = http.client.HTTPConnection(
            "127.0.0.1", self.http_port, timeout=30
        )
        try:
            connection.request("GET", path)
            response = connection.getresponse()
            return response.status, response.read()
        finally:
            connection.close()

    def vm_hwm_mb(self) -> float:
        """The child's resident-set high-water mark (``VmHWM``), MB."""
        with open("/proc/%d/status" % self.pid) as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise ServerError("no VmHWM for pid %d" % self.pid)

    def cpu_seconds(self) -> float:
        """User + system CPU the child has used so far."""
        with open("/proc/%d/stat" % self.pid) as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        ticks = os.sysconf("SC_CLK_TCK")
        return (int(fields[11]) + int(fields[12])) / ticks

    def dump_spans(self) -> str:
        """Traced runs: ask the launcher to write its spans, wait, and
        return the file."""
        path = os.path.join(self.spans_dir, "spans-%d.json" % self.pid)
        self.proc.send_signal(signal.SIGUSR1)
        deadline = time.perf_counter() + 30.0
        while not os.path.exists(path):
            if time.perf_counter() > deadline or self.proc.poll() is not None:
                raise ServerError("no span dump from pid %d" % self.pid)
            time.sleep(0.005)
        return path

    def stale_pools(self) -> int:
        """Traced runs: the launcher's count of cached pools of a
        non-current dataset version, read from a span dump that is then
        removed (the dump at the next kill holds every span again)."""
        path = self.dump_spans()
        with open(path) as handle:
            stale = json.load(handle)["stale_pools"]
        os.remove(path)
        return stale

    def kill(self) -> None:
        """SIGKILL the child and wait for it."""
        if self.proc is None:
            return
        proc, self.proc = self.proc, None
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        if proc.stdout is not None:
            proc.stdout.close()


class HttpClient:
    """One keep-alive HTTP/1.1 connection, the way a GUI talks."""

    def __init__(self, port: int) -> None:
        self.connection = http.client.HTTPConnection(
            "127.0.0.1", port, timeout=60
        )

    def call(
        self, kind: str, payload: dict[str, Any], request_id: str
    ) -> tuple[float, float, dict[str, Any], int]:
        if kind in ("summary", "explore", "guidance"):
            path = "/v2/" + kind
        else:
            path = "/v2/admin/" + kind
        body = json.dumps(payload).encode("utf-8")
        started = time.perf_counter()
        self.connection.request(
            "POST", path, body=body,
            headers={"Content-Type": "application/json",
                     "X-Request-Id": request_id},
        )
        response = self.connection.getresponse()
        raw = response.read()
        ended = time.perf_counter()
        return started, ended, json.loads(raw), response.status

    def close(self) -> None:
        self.connection.close()


class TcpClient:
    """One JSON-lines TCP connection."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=60)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader = self.sock.makefile("rb")

    def call(
        self, kind: str, payload: dict[str, Any], request_id: str
    ) -> tuple[float, float, dict[str, Any], int]:
        line = (json.dumps(dict(payload, kind=kind)) + "\n").encode("utf-8")
        started = time.perf_counter()
        self.sock.sendall(line)
        raw = self.reader.readline()
        ended = time.perf_counter()
        if not raw:
            raise ServerError("connection closed by the server")
        return started, ended, json.loads(raw), 200

    def close(self) -> None:
        self.reader.close()
        self.sock.close()
