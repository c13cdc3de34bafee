"""The benchmark's vocabulary: workloads, end-to-end metrics and layer metrics.

``BENCHMARK.json`` at the repository root is generated from these tables
(``python3 perfbench/run.py --write-benchmark-json``), and the tests check
that the two agree, so a metric is named in exactly one place.

Every layer metric records which end-to-end metric, on which workload, it
should move (``LAYER_METRICS[...].moves``).  Layers a workload never enters
report an exact ``0`` in that workload's traced run.
"""

from __future__ import annotations

from typing import NamedTuple, Tuple

RUN_SECONDS = 16

COMMAND = ("python3", "perfbench/run.py")


class Workload(NamedTuple):
    name: str
    why: str


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    bound: float


class Layer(NamedTuple):
    name: str
    unit: str
    better: str
    moves: str


WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        "paper_compare",
        "the paper's six-algorithm comparison as a serial TrialPlan; time goes "
        "to the algorithms' serve loops on large chunks, led by max-push and move-half",
    ),
    Workload(
        "datacenter_traffic",
        "the datacenter plan scaled to 256 racks and 8 sources, serial; "
        "each stage regenerates its Markov trace, so network trace generation rivals serving",
    ),
    Workload(
        "live_serve",
        "a repro serve subprocess driven closed-loop by 2 connections with "
        "batches of 1, 4 and 16; the per-message path clients wait on",
    ),
    Workload(
        "fleet_dispatch",
        "repro.run coordinating 2 repro worker subprocesses over 100 payloads of "
        "200 requests; dispatch (lease round trips, the coordinator's idle poll) dominates",
    ),
)

# A batch user waits for a whole repro.run call and a live user for one
# batch round trip, so latency samples time those units; throughput samples
# are per repro.run call, or per half-second window of a live run.  On a
# shared 2-vCPU host the machine's speed drifts between a fast and a slow
# state from second to second, so run medians flip between the two and
# vary by up to ~25% across runs, while the slow-state statistics hold
# within ~10%.  Hence the gated metrics: throughput is the 10th percentile
# of its samples (the rate sustained 9 times in 10), latency the 90th
# percentile (at least ten samples beyond it in every workload).  Means,
# medians and the live p99 are printed, not gated.
END_TO_END: Tuple[EndToEnd, ...] = (
    EndToEnd("requests_per_s", "1/s", "higher", 0.25),
    EndToEnd("latency_p90_ms", "ms", "lower", 0.25),
    EndToEnd("setup_s", "s", "lower", 0.25),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.05),
)

_ALGORITHMS = (
    "rotor-push",
    "random-push",
    "move-to-front",
    "move-half",
    "max-push",
    "static-oblivious",
)

LAYER_METRICS: Tuple[Layer, ...] = (
    Layer("calibration.loop_ms", "ms", "lower", "nothing; separates machine drift from a regression"),
    Layer("plans.build_s", "s", "lower", "setup_s on paper_compare and datacenter_traffic"),
    Layer("plans.overhead_s", "s", "lower", "requests_per_s on paper_compare and datacenter_traffic"),
    Layer("sim.execute_s", "s", "lower", "requests_per_s on paper_compare and datacenter_traffic"),
    Layer("sim.overhead_share", "ratio", "lower", "requests_per_s on paper_compare and datacenter_traffic"),
    Layer("workloads.generate_us_per_req", "us", "lower", "requests_per_s on paper_compare (small)"),
    Layer("network.trace_us_per_req", "us", "lower", "requests_per_s on datacenter_traffic"),
    Layer("network.serve_us_per_req", "us", "lower", "requests_per_s on datacenter_traffic"),
    *(
        Layer(f"algorithms.serve_us_per_req.{name}", "us", "lower", "requests_per_s on paper_compare")
        for name in _ALGORITHMS
    ),
    Layer("algorithms.batch1_us_per_req.rotor-push", "us", "lower", "latency_p90_ms on live_serve"),
    Layer("algorithms.batch16_us_per_req.rotor-push", "us", "lower", "latency_p90_ms on live_serve"),
    Layer("resilience.retries", "count", "lower", "error rate on paper_compare and datacenter_traffic"),
    Layer("serve.engine_submit_us_per_batch", "us", "lower", "latency_p90_ms and requests_per_s on live_serve"),
    Layer("serve.ingest_us_per_batch", "us", "lower", "latency_p90_ms and requests_per_s on live_serve"),
    Layer("serve.server_latency_ms_mean", "ms", "lower", "latency_p90_ms on live_serve"),
    Layer("serve.queue_wait_ms_mean", "ms", "lower", "latency_p90_ms on live_serve"),
    Layer("serve.wire_ms_p50", "ms", "lower", "latency_p90_ms on live_serve"),
    Layer("serve.server_cpu_share", "ratio", "lower", "requests_per_s on live_serve"),
    Layer("serve.ingest_bytes_per_req", "B", "lower", "requests_per_s on live_serve"),
    Layer("serve.busy_replies", "count", "lower", "error rate on live_serve"),
    Layer("dist.codec_us_per_payload", "us", "lower", "requests_per_s on fleet_dispatch"),
    Layer("dist.turnaround_ms_mean", "ms", "lower", "requests_per_s on fleet_dispatch"),
    Layer("dist.queue_wait_ms_mean", "ms", "lower", "requests_per_s on fleet_dispatch"),
    Layer("dist.worker_lease_ms_mean", "ms", "lower", "requests_per_s on fleet_dispatch"),
    Layer(
        "dist.worker_cpu_share",
        "ratio",
        "higher",
        "requests_per_s on fleet_dispatch; a low share exposes the one-lease-per-worker floor",
    ),
    Layer("dist.leases", "count", "lower", "requests_per_s on fleet_dispatch"),
    Layer("dist.requeues", "count", "lower", "error rate on fleet_dispatch"),
    Layer("telemetry.histogram_observe_us", "us", "lower", "latency_p90_ms on live_serve"),
    Layer("telemetry.counter_inc_us", "us", "lower", "latency_p90_ms on live_serve"),
    Layer("trace.unattributed_share", "ratio", "lower", "nothing; shows whether the layer split can be trusted"),
    Layer("trace.overhead_share", "ratio", "lower", "nothing; traced wall over untraced wall, minus 1"),
)

WORKLOAD_NAMES = tuple(workload.name for workload in WORKLOADS)


def benchmark_document() -> dict:
    """The ``BENCHMARK.json`` document these tables describe."""
    return {
        "command": list(COMMAND),
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in LAYER_METRICS
        ],
    }
