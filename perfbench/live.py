"""The ``live_serve`` workload: a ``repro serve`` subprocess, two closed-loop connections.

Each connection is one source with one outstanding batch; batch sizes
cycle through 1, 4 and 16, drawn from the seed before the timed region.
Both connections are driven from one asyncio loop on one thread, so client
threads never contend for the interpreter lock and the timings are the
server's and the wire's.  Outputs are checked twice: the client-side reply
totals must equal the server's ``stats`` frame, and the ingest log must
replay through ``repro.run`` into a cost table identical to the live one.
"""

from __future__ import annotations

import asyncio
import os
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import probes
import spans
from batch import trace_shares
from common import Daemon, cpu_seconds, median, peak_rss_mb, remove_dir, scratch_dir, table_document
from measured import Outcome, counter_delta, hist_mean_ms

import repro
from repro.dist.framing import parse_listen_address, read_frame, write_frame
from repro.dist.protocol import PROTOCOL_VERSION
from repro.serve.ingest import IngestError, read_ingest_log
from repro.serve.replay import build_replay_plan
from repro.telemetry.export import scrape

CONNECTIONS = 2
#: Destinations drawn per connection; a connection cycles through them.
DESTINATIONS_PER_CONNECTION = 140_000
SETUP_ROUNDS = 5
#: Throughput is sampled over windows of this many seconds.
WINDOW_S = 0.5
#: Pause before resending a batch the server answered with ``busy``.
BUSY_RETRY_S = 0.002
#: A reply slower than this fails the run instead of hanging it.
RPC_TIMEOUT_S = 30.0


class Connection:
    """One session: its socket, its batches and its tallies."""

    def __init__(self, source: str, batches: List[List[int]]) -> None:
        self.source = source
        self.batches = batches
        self.next_batch = 0
        self.latencies_ms: List[float] = []
        #: (completion time in ns, requests) per reply, for windowed throughput.
        self.completions: List[tuple] = []
        self.totals = {"n_requests": 0, "total_access_cost": 0, "total_adjustment_cost": 0}
        self.errors = 0
        self.busy = 0
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None

    async def rpc(self, message: Dict[str, object]) -> Dict[str, object]:
        await write_frame(self._writer, message)
        return await asyncio.wait_for(read_frame(self._reader), RPC_TIMEOUT_S)

    async def open(self, address: str) -> None:
        host, port = parse_listen_address(address)
        self._reader, self._writer = await asyncio.open_connection(host, port)
        welcome = await self.rpc({"type": "hello", "protocol": PROTOCOL_VERSION})
        session = await self.rpc({"type": "open_session", "source": self.source})
        if welcome.get("type") != "welcome" or session.get("type") != "session":
            raise RuntimeError(f"serve handshake failed: {welcome!r} {session!r}")

    async def drive(self, deadline: float, recorder=None, track: int = 0) -> None:
        batches = self.batches
        clock = time.perf_counter_ns
        while time.perf_counter() < deadline:
            batch = batches[self.next_batch % len(batches)]
            self.next_batch += 1
            message = {"type": "request_batch", "id": self.next_batch, "destinations": batch}
            started = clock()
            reply = await self.rpc(message)
            while reply.get("type") == "busy":
                self.busy += 1
                await asyncio.sleep(BUSY_RETRY_S)
                reply = await self.rpc(message)
            ended = clock()
            if recorder is not None:
                recorder.add("serve.rpc", started, ended, track)
            self.latencies_ms.append((ended - started) / 1e6)
            if reply.get("type") != "reply":
                self.errors += 1
                continue
            self.completions.append((ended, reply["n"]))
            self.totals["n_requests"] += reply["n"]
            self.totals["total_access_cost"] += reply["access_cost"]
            self.totals["total_adjustment_cost"] += reply["adjustment_cost"]

    async def close(self) -> None:
        if self._writer is None:
            return
        writer, self._writer = self._writer, None
        try:
            await write_frame(writer, {"type": "close"})
            await read_frame(self._reader)
        except (ConnectionError, asyncio.IncompleteReadError, asyncio.TimeoutError):
            pass
        writer.close()
        await writer.wait_closed()


async def drive_all(connections: Sequence[Connection], seconds: float, recorder=None) -> float:
    """Drive every connection for ``seconds``; return the wall time."""

    async def tracked(index: int, connection: Connection, deadline: float) -> None:
        started = time.perf_counter_ns()
        await connection.drive(deadline, recorder, index)
        if recorder is not None:
            recorder.add_track(index, started, time.perf_counter_ns())

    started = time.perf_counter()
    deadline = started + seconds
    await asyncio.gather(*(tracked(i, c, deadline) for i, c in enumerate(connections)))
    return time.perf_counter() - started


def window_rates(connections: Sequence[Connection], started_ns: int, seconds: float) -> List[float]:
    """Requests per second completed in each whole ``WINDOW_S`` window of the run."""
    count = int(seconds / WINDOW_S)
    served = [0] * count
    for connection in connections:
        for ended, n in connection.completions:
            window = int((ended - started_ns) / 1e9 / WINDOW_S)
            if 0 <= window < count:
                served[window] += n
    return [value / WINDOW_S for value in served]


def share_one_cpu(server_pid: int) -> None:
    """Run this client and the server on one CPU for the timed region.

    Each round trip is then two context switches on that CPU instead of two
    cross-CPU wake-ups, whose latency on a shared 2-vCPU virtual machine
    follows the host's load.  Over ten runs there, pinning cut the spread of
    p90 latency from 19% to 5% of its median (throughput: 19% to 17%).  The
    client's own CPU time now counts against throughput;
    ``serve.server_cpu_share`` in the traced run separates the two.
    """
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(server_pid, {cpu})
    os.sched_setaffinity(0, {cpu})


def start_server(seed: int, log_dir: Path) -> Daemon:
    return Daemon(
        [
            "serve",
            "--listen", "tcp://127.0.0.1:0",
            "--nodes", str(probes.LIVE_NODES),
            "--algorithm", "rotor-push",
            "--base-seed", str(seed),
            "--log-dir", str(log_dir),
            "--metrics", "tcp://127.0.0.1:0",
        ],
        "serve listening on",
        "serve drained",
    )


async def open_all(address: str, connections: Sequence[Connection]) -> None:
    for connection in connections:
        await connection.open(address)


async def close_all(connections: Sequence[Connection]) -> None:
    for connection in connections:
        await connection.close()


async def drain_and_stats(connections: Sequence[Connection]) -> Dict[str, object]:
    """Wait until every session is served and logged; return a ``stats`` frame."""
    for connection in connections:
        drained = await connection.rpc({"type": "drain"})
        if drained.get("type") != "drained":
            raise RuntimeError(f"drain failed: {drained!r}")
    return await connections[0].rpc({"type": "stats"})


def check_outputs(log_dir: Path, stats: Dict[str, object],
                  connections: Sequence[Connection]) -> List[str]:
    """Compare client totals to the stats frame and the replayed log to the live table."""
    problems = []
    live_table = {
        "columns": list(stats["cost_table"]["columns"]),
        "rows": [dict(row) for row in stats["cost_table"]["rows"]],
    }
    by_source = {entry["source"]: entry for entry in stats["engine"]["sources"]}
    for connection in connections:
        served = by_source.get(connection.source, {})
        for key, value in connection.totals.items():
            if served.get(key) != value:
                problems.append(
                    f"{connection.source}: client {key} {value} != stats frame {served.get(key)}"
                )
    try:
        log = read_ingest_log(log_dir)
    except IngestError as error:
        return problems + [f"ingest log unreadable: {error}"]
    if log.report.anomalies:
        problems.append("ingest log damaged: " + "; ".join(log.report.anomalies))
    replayed = table_document(repro.run(build_replay_plan(log)))
    if replayed != live_table:
        problems.append("replayed ingest log differs from the live cost table")
    return problems


def run_live(seed: int, seconds: float, trace: bool) -> Outcome:
    generate_started = time.perf_counter()
    streams = [
        probes.live_destinations(2 * seed + index, DESTINATIONS_PER_CONNECTION)
        for index in range(CONNECTIONS)
    ]
    generate_s = time.perf_counter() - generate_started
    batch_streams = [probes.cut_batches(stream) for stream in streams]

    cpus = os.sched_getaffinity(0)
    loop = asyncio.new_event_loop()
    setups = []
    server: Optional[Daemon] = None
    connections: List[Connection] = []
    log_dir: Optional[Path] = None
    clean_stops = True
    outcome = Outcome()
    try:
        for round_index in range(SETUP_ROUNDS):
            log_dir = scratch_dir("ingest-")
            connections = [
                Connection(f"conn{index}", batch_streams[index]) for index in range(CONNECTIONS)
            ]
            started = time.perf_counter()
            server = start_server(seed, log_dir)
            loop.run_until_complete(open_all(server.address, connections))
            setups.append(time.perf_counter() - started)
            if round_index < SETUP_ROUNDS - 1:
                loop.run_until_complete(close_all(connections))
                clean_stops &= server.stop()
                remove_dir(log_dir)
                server, connections, log_dir = None, [], None
        outcome.setup_s = median(setups)
        share_one_cpu(server.pid)
        if not trace:
            started_ns = time.perf_counter_ns()
            wall = loop.run_until_complete(drive_all(connections, seconds))
            outcome.rates = window_rates(connections, started_ns, seconds)
            outcome.latencies_ms = [value for c in connections for value in c.latencies_ms]
            outcome.served = sum(c.totals["n_requests"] for c in connections)
            outcome.wall_s = wall
        else:
            outcome.layers, outcome.recorder = _traced(loop, connections, server, seconds, seed)
            outcome.layers["workloads.generate_us_per_req"] = (
                generate_s / (CONNECTIONS * DESTINATIONS_PER_CONNECTION) * 1e6
            )
        stats = loop.run_until_complete(drain_and_stats(connections))
        outcome.peak_rss_mb = peak_rss_mb(server.pid)
        outcome.attempted = sum(len(c.latencies_ms) for c in connections)
        outcome.failed = sum(c.busy + c.errors for c in connections)
        loop.run_until_complete(close_all(connections))
        clean_stops &= server.stop()
        server = None
        outcome.problems = check_outputs(log_dir, stats, connections)
        if not clean_stops:
            outcome.problems.append("the server missed its drain line and was killed")
    finally:
        os.sched_setaffinity(0, cpus)
        loop.run_until_complete(close_all(connections))
        loop.close()
        if server is not None:
            server.stop()
        remove_dir(log_dir)
    return outcome


def _traced(loop, connections, server: Daemon, seconds: float, seed: int):
    """Untraced half, then traced half; layer numbers from spans and scrapes."""
    untraced_wall = loop.run_until_complete(drive_all(connections, seconds / 2))
    untraced_requests = sum(c.totals["n_requests"] for c in connections)
    marks = [len(c.latencies_ms) for c in connections]
    before = scrape(server.metrics_url)["metrics"]
    cpu_before = cpu_seconds(server.pid)
    recorder = spans.SpanRecorder(f"live_serve-{seed}")
    traced_wall = loop.run_until_complete(drive_all(connections, seconds / 2, recorder))
    server_cpu = cpu_seconds(server.pid) - cpu_before
    after = scrape(server.metrics_url)["metrics"]
    traced_latencies = [
        value for c, mark in zip(connections, marks) for value in c.latencies_ms[mark:]
    ]
    traced_requests = sum(c.totals["n_requests"] for c in connections) - untraced_requests
    server_latency = hist_mean_ms(before, after, "repro_serve_latency_seconds")
    served = counter_delta(before, after, "repro_serve_requests_total")
    layers = {
        "serve.server_latency_ms_mean": server_latency,
        "serve.queue_wait_ms_mean": hist_mean_ms(before, after, "repro_serve_queue_wait_seconds"),
        "serve.wire_ms_p50": median(traced_latencies) - server_latency,
        "serve.server_cpu_share": server_cpu / traced_wall,
        "serve.ingest_bytes_per_req": (
            counter_delta(before, after, "repro_ingest_bytes_total") / served if served else 0.0
        ),
        "serve.busy_replies": counter_delta(before, after, "repro_serve_busy_total"),
    }
    layers.update(
        trace_shares(recorder, untraced_wall / untraced_requests, traced_wall / traced_requests)
    )
    layers.update(probes.common_probes(seed))
    return layers, recorder
