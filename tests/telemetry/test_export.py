"""Export surfaces: HTTP endpoint, ``metrics`` frames, scrape(), snapshots."""

from __future__ import annotations

import json
import socket
import urllib.request

import pytest

from repro.dist.framing import recv_frame, send_frame
from repro.dist.protocol import PROTOCOL_VERSION
from repro.dist.worker import WorkerServer
from repro.exceptions import ExperimentError
from repro.serve.server import ServeServer
from repro.telemetry.export import (
    MetricsHTTPServer,
    metrics_frame,
    scrape,
    start_metrics_server,
)
from repro.telemetry.registry import MetricsRegistry, render_prometheus
from repro.telemetry.snapshots import MetricsSnapshotWriter
from repro.telemetry.trace import Tracer, span_id


@pytest.fixture()
def registry():
    registry = MetricsRegistry()
    registry.counter("demo_total", "Demo.").inc(3)
    registry.histogram("demo_seconds", buckets=(1.0,)).observe(0.5)
    return registry


@pytest.fixture()
def tracer():
    tracer = Tracer(capacity=16)
    tracer.record("demo", span_id("demo", 1), duration=0.25)
    return tracer


class TestMetricsFrame:
    def test_frame_shape(self, registry):
        frame = metrics_frame(registry)
        assert frame["type"] == "metrics"
        assert frame["metrics"]["counters"]["demo_total"]["values"][0]["value"] == 3
        assert "trace" not in frame

    def test_frame_with_trace(self, registry, tracer):
        frame = metrics_frame(registry, tracer, include_trace=True)
        assert len(frame["trace"]["spans"]) == 1

    def test_frame_is_json_serialisable(self, registry, tracer):
        json.dumps(metrics_frame(registry, tracer, include_trace=True))


class TestHTTPServer:
    @pytest.fixture()
    def endpoint(self, registry, tracer):
        server = MetricsHTTPServer(
            "tcp://127.0.0.1:0", registry=registry, tracer=tracer
        ).start()
        yield server
        server.stop()

    def get(self, endpoint, path):
        # endpoint.url is the advertised scrape target and ends in /metrics;
        # raw path tests build from host/port
        base = f"http://{endpoint.host}:{endpoint.port}"
        with urllib.request.urlopen(base + path, timeout=10) as response:
            return response.status, response.read().decode("utf-8")

    def test_metrics_text(self, endpoint, registry):
        status, body = self.get(endpoint, "/metrics")
        assert status == 200
        assert body == render_prometheus(registry.snapshot())
        assert "demo_total 3" in body

    def test_metrics_json(self, endpoint, registry):
        _status, body = self.get(endpoint, "/metrics.json")
        assert json.loads(body) == registry.snapshot()

    def test_trace_json(self, endpoint, tracer):
        _status, body = self.get(endpoint, "/trace.json")
        assert json.loads(body) == tracer.dump()

    def test_unknown_path_404(self, endpoint):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self.get(endpoint, "/nope")
        # the error owns the HTTP response, and with it the client socket
        with excinfo.value as error:
            assert error.code == 404

    def test_bad_bind_is_loud(self, registry):
        with pytest.raises(ExperimentError):
            MetricsHTTPServer("tcp://256.0.0.999:1", registry=registry)

    def test_start_metrics_server_none_passthrough(self, registry):
        assert start_metrics_server(None, registry=registry) is None
        assert start_metrics_server("", registry=registry) is None


class TestScrapeSurfaces:
    def test_http_scrape_matches_snapshot(self, registry, tracer):
        endpoint = MetricsHTTPServer(
            "tcp://127.0.0.1:0", registry=registry, tracer=tracer
        ).start()
        try:
            # both the advertised /metrics URL and the bare base work
            result = scrape(endpoint.url)
            assert result["metrics"] == registry.snapshot()
            assert "trace" not in result
            traced = scrape(
                f"http://{endpoint.host}:{endpoint.port}", include_trace=True
            )
            assert traced["trace"] == tracer.dump()
        finally:
            endpoint.stop()

    def test_worker_frame_scrape(self):
        registry = MetricsRegistry()
        tracer = Tracer(capacity=8)
        worker = WorkerServer(registry=registry, tracer=tracer).start()
        try:
            result = scrape(f"tcp://{worker.host}:{worker.port}", include_trace=True)
        finally:
            worker.stop()
        counters = result["metrics"]["counters"]
        assert "repro_worker_sessions_total" in counters
        assert result["trace"]["capacity"] == 8

    def test_serve_frame_scrape(self):
        registry = MetricsRegistry()
        server = ServeServer(
            n_nodes=15, algorithm="rotor-push", registry=registry
        ).start()
        try:
            result = scrape(server.address)
        finally:
            server.stop()
        gauges = result["metrics"]["gauges"]
        assert "repro_serve_sessions" in gauges

    def test_serve_raw_metrics_frame(self):
        """The typed frame is reachable over the raw protocol, pre-session."""
        server = ServeServer(n_nodes=15, algorithm="rotor-push").start()
        try:
            sock = socket.create_connection((server.host, server.port), timeout=10)
            try:
                send_frame(sock, {"type": "hello", "protocol": PROTOCOL_VERSION})
                assert recv_frame(sock)["type"] == "welcome"
                send_frame(sock, {"type": "metrics", "trace": True})
                reply = recv_frame(sock)
            finally:
                sock.close()
        finally:
            server.stop()
        assert reply["type"] == "metrics"
        assert set(reply["metrics"]) == {"counters", "gauges", "histograms"}
        assert "spans" in reply["trace"]

    def test_unsupported_scheme_is_loud(self):
        with pytest.raises(ExperimentError):
            scrape("udp://127.0.0.1:9")


class TestSnapshotWriter:
    def test_snapshot_lines_are_jsonl(self, tmp_path, registry):
        path = tmp_path / "metrics.jsonl"
        writer = MetricsSnapshotWriter(path, interval=60.0, registry=registry)
        writer.write_snapshot()
        registry.counter("demo_total").inc()
        writer.write_snapshot()
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        first, second = (json.loads(line) for line in lines)
        assert first["metrics"]["counters"]["demo_total"]["values"][0]["value"] == 3
        assert second["metrics"]["counters"]["demo_total"]["values"][0]["value"] == 4
        assert first["ts"] <= second["ts"]

    def test_stop_flushes_a_final_snapshot(self, tmp_path, registry):
        path = tmp_path / "metrics.jsonl"
        writer = MetricsSnapshotWriter(path, interval=3600.0, registry=registry)
        writer.start()
        writer.stop()
        assert len(path.read_text().splitlines()) == 1

    def test_bad_interval_rejected(self, tmp_path, registry):
        with pytest.raises(ValueError):
            MetricsSnapshotWriter(tmp_path / "m.jsonl", interval=0, registry=registry)
