"""The ``serve-query`` workload: one load generator against the CLI server.

The server is ``python -m repro.cli serve`` with its CLI defaults (only
``--port 0``).  This process is the single load generator: at most
``nproc`` keep-alive connections, first an open loop at a fixed rate (each
request timed from when it was due), then a closed loop.  40 % of
requests name one of 32 hot archs the response cache serves, 60 % name an
arch never sent before.  Every 200 is checked afterwards against the
in-process answer on the same store.
"""

from __future__ import annotations

import asyncio
import json
import os
import select
import signal
import subprocess
import sys
import time

import common

OPEN_RPS = 100.0
HOT_ARCHS, HOT_SHARE = 32, 0.4
CONNECTIONS = max(1, min(2, os.cpu_count() or 1))
SERVER_TIMEOUT_S = 60.0
# The server and the load generator each get a CPU of their own, so the
# placement is the same in every run.
SERVER_CPU = min(os.sched_getaffinity(0))
LOADGEN_CPU = max(os.sched_getaffinity(0))


class Conn:
    """A minimal keep-alive HTTP/1.1 JSON client owned by the benchmark."""

    def __init__(self, port: int) -> None:
        self.port = port
        self.reader = self.writer = None

    async def open(self) -> None:
        self.reader, self.writer = await asyncio.open_connection("127.0.0.1", self.port)

    async def request(self, method: str, path: str, payload=None) -> tuple[int, bytes]:
        body = json.dumps(payload).encode() if payload is not None else b""
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n"
            "Connection: keep-alive\r\n\r\n"
        )
        self.writer.write(head.encode("latin-1") + body)
        await self.writer.drain()
        status = int((await self.reader.readline()).split()[1])
        length = 0
        while True:
            line = await self.reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        return status, await self.reader.readexactly(length)

    async def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except ConnectionError:
                pass


class Server:
    """A spawned server process; ``start`` returns spawn-to-first-200 s."""

    def __init__(self, spans_out=None) -> None:
        self.spans_out = spans_out
        self.proc: subprocess.Popen | None = None
        self.port: int | None = None

    def start(self, probe: dict) -> float:
        cli = ["serve", "--bench", str(common.STORE), "--port", "0"]
        # -u: the CLI prints its "serving ... on http://" line without a
        # flush, and a pipe would hold it in the block buffer.
        if self.spans_out is None:
            cmd = [sys.executable, "-u", "-m", "repro.cli", *cli]
        else:
            helper = str(common.ROOT / "perfbench" / "serve_traced.py")
            cmd = [sys.executable, "-u", helper, str(self.spans_out), *cli]
        log = open(common.WORK / "serve.log", "ab")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, cwd=common.ROOT, env=common.child_env(),
            stdout=subprocess.PIPE, stderr=log,
        )
        log.close()
        os.sched_setaffinity(self.proc.pid, {SERVER_CPU})
        line = self._first_line()
        if " on http://" not in line:
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        self.port = int(line.rsplit(":", 1)[1].strip().rstrip("/"))
        status = asyncio.run(asyncio.wait_for(self._first(probe), SERVER_TIMEOUT_S))
        if status != 200:
            self.stop()
            raise RuntimeError(f"first /query answered {status}")
        return time.perf_counter() - t0

    def _first_line(self) -> str:
        """The server's first stdout line, or what came before the timeout."""
        fd = self.proc.stdout.fileno()
        deadline = time.perf_counter() + SERVER_TIMEOUT_S
        data = b""
        while b"\n" not in data:
            left = deadline - time.perf_counter()
            if left <= 0 or not select.select([fd], [], [], left)[0]:
                break
            chunk = os.read(fd, 4096)
            if not chunk:
                break
            data += chunk
        return data.split(b"\n", 1)[0].decode("utf-8", "replace")

    async def _first(self, probe: dict) -> int:
        conn = Conn(self.port)
        await conn.open()
        try:
            return (await conn.request("POST", "/query", probe))[0]
        finally:
            await conn.close()

    def peak_rss_mb(self) -> float:
        return common.proc_peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=SERVER_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.proc = None


class Traffic:
    """Benchmark-owned request stream: hot archs and never-sent archs."""

    def __init__(self, stream, targets) -> None:
        self.stream = stream
        self.targets = targets
        self.hot = [stream.random().to_string() for _ in range(HOT_ARCHS)]
        self.sent: list[tuple[dict, int, bytes]] = []

    def payload(self) -> dict:
        rng = self.stream.rng
        device, metric = self.targets[int(rng.integers(0, len(self.targets)))]
        if rng.random() < HOT_SHARE:
            arch = self.hot[int(rng.integers(0, HOT_ARCHS))]
        else:
            arch = self.stream.random().to_string()
        return {"arch": arch, "device": device, "metric": metric}

    def warm_payloads(self) -> list[dict]:
        return [
            {"arch": arch, "device": d, "metric": m}
            for arch in self.hot for d, m in self.targets
        ]


async def _statz(port: int) -> dict:
    conn = Conn(port)
    await conn.open()
    try:
        return json.loads((await conn.request("GET", "/statz"))[1])
    finally:
        await conn.close()


async def _load(port: int, traffic: Traffic, seconds: float) -> dict:
    """Warm the cache, then the open loop and the closed loop."""
    conns = [Conn(port) for _ in range(CONNECTIONS)]
    for conn in conns:
        await conn.open()
    try:
        for payload in traffic.warm_payloads():
            await conns[0].request("POST", "/query", payload)
        statz0 = await _statz(port)

        # Open loop: request i is due at start + i / OPEN_RPS.
        n_open = int(OPEN_RPS * seconds / 2)
        schedule = [traffic.payload() for _ in range(n_open)]
        latencies, lateness = [], []
        cursor = iter(range(n_open))
        start = time.perf_counter() + 0.01

        async def open_worker(conn):
            for i in cursor:
                due = start + i / OPEN_RPS
                delay = due - time.perf_counter()
                if delay > 0:
                    await asyncio.sleep(delay)
                lateness.append(max(0.0, time.perf_counter() - due))
                status, body = await conn.request("POST", "/query", schedule[i])
                latencies.append(time.perf_counter() - due)
                traffic.sent.append((schedule[i], status, body))

        await asyncio.gather(*(open_worker(c) for c in conns))

        # Closed loop: each connection sends its next request on the answer.
        answered = [0]
        closed_end = time.perf_counter() + seconds / 2

        async def closed_worker(conn):
            while time.perf_counter() < closed_end:
                payload = traffic.payload()
                status, body = await conn.request("POST", "/query", payload)
                traffic.sent.append((payload, status, body))
                answered[0] += 1

        t0 = time.perf_counter()
        await asyncio.gather(*(closed_worker(c) for c in conns))
        closed_wall = time.perf_counter() - t0
        statz1 = await _statz(port)
    finally:
        for conn in conns:
            await conn.close()
    return {
        "latencies": latencies, "lateness": lateness,
        "closed": (answered[0], closed_wall), "statz": (statz0, statz1),
    }


def verify(traffic: Traffic) -> tuple[int, int]:
    """(attempted, ok): each 200 equals the in-process answer."""
    from repro.core.benchmark import AccelNASBench
    from repro.searchspace.mnasnet import ArchSpec

    bench = AccelNASBench.load(common.STORE)
    by_target: dict[tuple, list] = {}
    for payload, _, _ in traffic.sent:
        by_target.setdefault((payload["device"], payload["metric"]), []).append(payload["arch"])
    expected = {}
    for (device, metric), archs in by_target.items():
        unique = sorted(set(archs))
        results = bench.query_batch([ArchSpec.from_string(a) for a in unique], device, metric)
        for arch, r in zip(unique, results):
            expected[(arch, device, metric)] = {
                "arch": r.arch.to_string(), "accuracy": r.accuracy,
                "performance": r.performance, "device": r.device, "metric": r.metric,
            }
    ok = 0
    for payload, status, body in traffic.sent:
        key = (payload["arch"], payload["device"], payload["metric"])
        if status == 200 and json.loads(body) == expected[key]:
            ok += 1
    return len(traffic.sent), ok


def run_phase(stream, seconds: float, setup_samples: int, spans_out=None) -> dict:
    """Spawn (timing set-up), load, stop, verify; returns the raw figures."""
    probe_arch = stream.random().to_string()
    probe = {"arch": probe_arch, "device": common.TARGETS[0][0], "metric": common.TARGETS[0][1]}
    # Set-up samples sit between spawn-reference samples on the server's CPU.
    os.sched_setaffinity(0, {SERVER_CPU})
    ref = common.Reference("spawn")
    setups, setups_norm = [], []
    before = ref.sample()
    servers = [Server() for _ in range(setup_samples - 1)] + [Server(spans_out)]
    main = servers[-1]
    try:
        for server in servers:
            setups.append(server.start(probe))
            after = ref.sample()
            setups_norm.append(setups[-1] * ref.scale(before, after))
            before = after
            if server is not main:
                server.stop()
        os.sched_setaffinity(0, {LOADGEN_CPU})
        traffic = Traffic(stream, common.TARGETS)
        load = asyncio.run(_load(main.port, traffic, seconds))
        rss = main.peak_rss_mb()
    finally:
        for server in servers:
            server.stop()
    attempted, ok = verify(traffic)
    return {
        "setups": setups, "setups_norm": setups_norm, "load": load, "rss_mb": rss,
        "attempted": attempted, "ok": ok,
    }
