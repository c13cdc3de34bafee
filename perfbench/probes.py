"""Layer probes of the traced run: direct timings of single public calls.

These run outside the timed region.  The serve-side probes replay the
live workload's batch stream (the same seed-drawn batches ``live_serve``
sends) through the layer in this process, so every traced run reports them.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Sequence

from benchplans import combined_locality
from common import median, remove_dir, scratch_dir

from repro.algorithms import make_algorithm
from repro.dist.framing import decode_frame_body, encode_frame
from repro.dist.protocol import payload_from_dict, payload_to_dict
from repro.plans import dumps, loads
from repro.serve.engine import ServeEngine
from repro.serve.ingest import IngestWriter
from repro.telemetry.registry import MetricsRegistry
from repro.workloads.spec import build_workload

LIVE_NODES = 1023
#: Batch sizes a live connection cycles through.
LIVE_BATCH_SIZES = (1, 4, 16)
#: Batches each probe replays.
PROBE_BATCHES = 3_000


def live_destinations(seed: int, n_requests: int) -> List[int]:
    """Destinations drawn from the live workload's spec for ``seed``."""
    spec = combined_locality(LIVE_NODES).with_seed(seed)
    return [int(value) for value in build_workload(spec).generate(n_requests)]


def cut_batches(destinations: Sequence[int]) -> List[List[int]]:
    """Cut a destination stream into batches of 1, 4, 16, 1, 4, 16, ..."""
    batches: List[List[int]] = []
    start = 0
    while True:
        size = LIVE_BATCH_SIZES[len(batches) % len(LIVE_BATCH_SIZES)]
        if start + size > len(destinations):
            return batches
        batches.append(list(destinations[start : start + size]))
        start += size


def _per_call_us(fn: Callable[[], object], calls: int) -> float:
    started = time.perf_counter()
    for _ in range(calls):
        fn()
    return (time.perf_counter() - started) / calls * 1e6


def telemetry_probes() -> Dict[str, float]:
    """Labelled ``Histogram.observe`` / ``Counter.inc`` on a fresh registry."""
    registry = MetricsRegistry()
    histogram = registry.histogram("probe_seconds", "probe", labels=("source",))
    counter = registry.counter("probe_total", "probe", labels=("source",))
    calls = 50_000
    return {
        "telemetry.histogram_observe_us": median(
            [_per_call_us(lambda: histogram.observe(0.001, source="a"), calls) for _ in range(3)]
        ),
        "telemetry.counter_inc_us": median(
            [_per_call_us(lambda: counter.inc(source="a"), calls) for _ in range(3)]
        ),
    }


def batch_serve_probes(seed: int) -> Dict[str, float]:
    """Rotor-push ``serve_batch`` on 1- and 16-destination batches."""
    destinations = live_destinations(seed + 1, 16 * PROBE_BATCHES)
    results = {}
    for size in (1, 16):
        algorithm = make_algorithm(
            "rotor-push", n_nodes=LIVE_NODES, placement_seed=seed, seed=seed, keep_records=False
        )
        batches = [
            destinations[start : start + size]
            for start in range(0, size * PROBE_BATCHES, size)
        ]
        started = time.perf_counter()
        for batch in batches:
            algorithm.serve_batch(batch)
        elapsed = time.perf_counter() - started
        results[f"algorithms.batch{size}_us_per_req.rotor-push"] = (
            elapsed / (size * PROBE_BATCHES) * 1e6
        )
    return results


def serve_path_probes(batches: Sequence[Sequence[int]], seed: int) -> Dict[str, float]:
    """``ServeEngine.submit`` and ``IngestWriter.append``+``flush`` per batch."""
    batches = list(batches)[:PROBE_BATCHES]
    engine = ServeEngine(n_nodes=LIVE_NODES, algorithm="rotor-push", base_seed=seed)
    engine.bind("probe")
    started = time.perf_counter()
    for batch in batches:
        engine.submit("probe", batch)
    submit_us = (time.perf_counter() - started) / len(batches) * 1e6
    directory = scratch_dir("ingest-probe-")
    try:
        with IngestWriter(directory / "log", {"probe": True}, registry=MetricsRegistry()) as log:
            started = time.perf_counter()
            for batch in batches:
                log.append({"type": "request", "source_id": 0, "destinations": batch})
                log.flush()
            ingest_us = (time.perf_counter() - started) / len(batches) * 1e6
    finally:
        remove_dir(directory)
    return {
        "serve.engine_submit_us_per_batch": submit_us,
        "serve.ingest_us_per_batch": ingest_us,
    }


def common_probes(seed: int) -> Dict[str, float]:
    """The probes every traced run reports, whatever its workload."""
    layers = telemetry_probes()
    layers.update(batch_serve_probes(seed))
    layers.update(serve_path_probes(cut_batches(live_destinations(seed, 7 * PROBE_BATCHES)), seed))
    return layers


def plan_build_s(build: Callable[[], object]) -> float:
    """Median time to build a plan and round-trip it through JSON."""
    samples = []
    for _ in range(3):
        started = time.perf_counter()
        loads(dumps(build()))
        samples.append(time.perf_counter() - started)
    return median(samples)


def codec_us_per_payload(payloads: Sequence[object]) -> float:
    """Encode and decode each payload as the fleet protocol does, per payload."""
    if not payloads:
        return 0.0
    started = time.perf_counter()
    for payload in payloads:
        frame = encode_frame({"type": "lease", "payload": payload_to_dict(payload)})
        payload_from_dict(decode_frame_body(frame[8:])["payload"])
    return (time.perf_counter() - started) / len(payloads) * 1e6
