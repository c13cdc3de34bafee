"""Tests of the benchmark itself, at toy size.

Run alone with ``python -m pytest -W error::ResourceWarning perfbench``.
"""

from __future__ import annotations

import asyncio
import json
import re
import shutil
import subprocess
import sys
import time

import pytest

import catalog
import live
import spans
from batch import _check_digests, _Repetitions, run_fleet, run_serial
from common import BENCH_DIR, ROOT, remove_dir, scratch_dir
from measured import Outcome
from run import result_line

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_benchmark_json_is_the_catalog_and_meets_the_limits():
    document = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert document == catalog.benchmark_document()
    assert set(document) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 2 <= len(document["workloads"]) <= 8
    names = [w["name"] for w in document["workloads"]]
    names += [m["name"] for m in document["end_to_end"] + document["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in document["workloads"])
    for metric in document["end_to_end"] + document["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("higher", "lower")
    assert all(0 < m["bound"] <= 0.25 for m in document["end_to_end"])
    setup = [m for m in document["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in document["end_to_end"])}]


@pytest.mark.parametrize("trace", [False, True])
def test_every_named_metric_is_emitted_with_its_unit(trace):
    outcome = Outcome(setup_s=1.0, rates=[2.0, 3.0], latencies_ms=[1.0, 2.0, 3.0],
                      peak_rss_mb=50.0, attempted=3, layers={"dist.leases": 4.0})
    line = result_line(outcome, trace, calibration_ms=20.0)
    expected = catalog.LAYER_METRICS if trace else catalog.END_TO_END
    assert line["metrics"] == {
        metric.name: {"value": line["metrics"][metric.name]["value"], "unit": metric.unit}
        for metric in expected
    }
    assert all(isinstance(m["value"], float) for m in line["metrics"].values())
    assert (line["correct"], line["attempted"], line["failed"]) == (True, 3, 0)


def test_a_failed_check_fails_every_operation():
    outcome = Outcome(rates=[1.0], latencies_ms=[1.0], attempted=7, problems=["tables differ"])
    line = result_line(outcome, False, calibration_ms=20.0)
    assert (line["correct"], line["attempted"], line["failed"]) == (False, 7, 7)


def test_tampered_batch_table_fails_the_digest_check():
    reps = _Repetitions()
    reps.digests = ["a" * 64, "a" * 64]
    assert _check_digests(reps, "a" * 64, "the reference") == []
    reps.digests[1] = "b" + "a" * 63
    assert _check_digests(reps, "a" * 64, "the reference") == [
        "1 of 2 result tables differ from the reference"
    ]


def test_self_times_plus_unattributed_equal_the_wall_time_synthetic():
    recorder = spans.SpanRecorder("synthetic")
    with recorder.track():
        with recorder.span("outer"):
            time.sleep(0.002)
            with recorder.span("inner"):
                time.sleep(0.001)
        for _ in recorder.wrap_iter("gen", [[1, 2], [3]]):
            time.sleep(0.001)
    shares = recorder.attribution()
    assert sum(shares.values()) == recorder.wall_ns()
    assert shares["unattributed"] > 0 and shares["inner"] > 0
    assert recorder.items("gen") == 3


def test_traced_run_attributes_the_wall_and_reports_every_layer():
    outcome = run_serial("paper_compare", 3, 0.1, trace=True)
    recorder = outcome.recorder
    assert sum(recorder.attribution().values()) == recorder.wall_ns()
    assert set(outcome.layers) <= {layer.name for layer in catalog.LAYER_METRICS}
    for name in ("sim.execute_s", "algorithms.serve_us_per_req.max-push",
                 "workloads.generate_us_per_req", "trace.unattributed_share",
                 "dist.codec_us_per_payload", "serve.engine_submit_us_per_batch"):
        assert outcome.layers[name] > 0, name
    assert outcome.problems == [] and outcome.failed == 0


def test_live_check_passes_then_catches_one_flipped_ingest_byte():
    log_dir = scratch_dir("test-ingest-")
    server = live.start_server(5, log_dir)
    connections = [
        live.Connection(f"conn{index}", [[1], [2, 3, 4, 5], list(range(16))])
        for index in range(live.CONNECTIONS)
    ]
    loop = asyncio.new_event_loop()
    try:
        loop.run_until_complete(live.open_all(server.address, connections))
        loop.run_until_complete(live.drive_all(connections, 0.2))
        stats = loop.run_until_complete(live.drain_and_stats(connections))
        loop.run_until_complete(live.close_all(connections))
        assert server.stop()
        server = None
        assert live.check_outputs(log_dir, stats, connections) == []
        segment = sorted(log_dir.glob("segment-*.jsonl"))[-1]
        data = bytearray(segment.read_bytes())
        data[len(data) // 2] ^= 0x01
        segment.write_bytes(bytes(data))
        assert live.check_outputs(log_dir, stats, connections) != []
    finally:
        loop.run_until_complete(live.close_all(connections))
        loop.close()
        if server is not None:
            server.stop()
        remove_dir(log_dir)


def test_fleet_toy_run_matches_a_serial_run_and_stops_its_workers():
    outcome = run_fleet(2, 0.1, trace=False)
    assert outcome.problems == [] and outcome.failed == 0
    assert outcome.attempted > 0 and min(outcome.rates) > 0


def test_command_line_run_prints_the_result_line():
    # no digest is stored for this seed: the check falls back to a python-backend run
    completed = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", "datacenter_traffic",
         "--seed", "1000", "--seconds", "0.1", "--trace", "0"],
        capture_output=True, text=True, cwd=ROOT, timeout=180,
    )
    assert completed.returncode == 0, completed.stderr
    line = _last_json(completed.stdout)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    assert list(line["metrics"]) == [metric.name for metric in catalog.END_TO_END]


def test_without_the_sources_the_run_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "live_serve", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=180,
    )
    assert completed.returncode != 0
    assert '"metrics"' not in completed.stdout
