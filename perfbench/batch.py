"""The plan-driven workloads: ``paper_compare``, ``datacenter_traffic``, ``fleet_dispatch``.

Each run repeats ``repro.run(plan)`` on one seed-stamped plan until the
measured seconds are used up.  Every repetition's result table must carry
the same digest, and that digest must match the stored reference (or, for
a seed without one, a run of the same plan on the scalar ``python``
backend; for the fleet, a serial run without the executor).
"""

from __future__ import annotations

import contextlib
import json
import subprocess
import sys
import time
from typing import Dict, List

import probes
import spans
from benchplans import FLEET_WORKERS, PAPER_ALGORITHMS, build_plan, plan_size
from common import (
    BENCH_DIR,
    ROOT,
    Daemon,
    child_env,
    cpu_seconds,
    median,
    peak_rss_mb,
    stop_all,
    table_digest,
)
from measured import Outcome, counter_delta, counter_value, hist_delta, hist_mean_ms

import repro
from repro.plans import last_run_stats, plan_with_overrides
from repro.telemetry.export import scrape
from repro.telemetry.registry import default_registry

REFERENCE_PATH = BENCH_DIR / "reference.json"

#: Setup is timed this many times per run; the median is reported.
SETUP_ROUNDS = 5
#: A run never reports fewer repetitions than this, however slow.
MIN_REPETITIONS = 3


def time_setup_probe(workload: str, seed: int) -> float:
    """Process start to plan ready, for a fresh interpreter."""
    started = time.perf_counter()
    process = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "run.py"), "--setup-probe", "--workload", workload,
         "--seed", str(seed)],
        stdout=subprocess.PIPE,
        stdin=subprocess.DEVNULL,
        text=True,
        env=child_env(),
        cwd=ROOT,
    )
    with process:
        line = process.stdout.readline()
        elapsed = time.perf_counter() - started
        process.stdout.read()
    if line.strip() != "ready" or process.returncode != 0:
        raise RuntimeError(f"setup probe for {workload} failed (exit {process.returncode})")
    return elapsed


# --------------------------------------------------------------- reference


def load_reference() -> Dict[str, Dict[str, str]]:
    if REFERENCE_PATH.is_file():
        return json.loads(REFERENCE_PATH.read_text())
    return {}


def reference_digest(workload: str, seed: int) -> str:
    """Stored digest for ``seed``, else one scalar-backend run of the plan."""
    stored = load_reference().get(workload, {}).get(str(seed))
    if stored is not None:
        return stored
    return table_digest(repro.run(plan_with_overrides(build_plan(workload, seed), backend="python")))


def write_reference(seeds) -> None:
    """Record scalar-backend digests of both serial plan workloads for ``seeds``."""
    document = load_reference()
    for workload in ("paper_compare", "datacenter_traffic"):
        entries = document.setdefault(workload, {})
        for seed in seeds:
            plan = plan_with_overrides(build_plan(workload, seed), backend="python")
            entries[str(seed)] = table_digest(repro.run(plan))
    REFERENCE_PATH.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")


# ------------------------------------------------------------- timed loop


class _Repetitions:
    """Per-repetition walls, digests and failure counts of a timed loop."""

    def __init__(self) -> None:
        self.walls: List[float] = []
        self.digests: List[str] = []
        self.retries = 0
        self.failed = 0
        self.errors: List[str] = []


def _repeat(plan, seconds: float, reps: _Repetitions, recorder=None, on_stats=None) -> float:
    """Run ``plan`` until ``seconds`` pass; return the loop's wall time."""
    started = time.perf_counter()
    deadline = started + seconds
    _, n_payloads = plan_size(plan)
    count = 0
    while count < MIN_REPETITIONS or time.perf_counter() < deadline:
        begin = time.perf_counter()
        try:
            if recorder is None:
                table = repro.run(plan)
            else:
                with recorder.span("plans.run"):
                    table = repro.run(plan)
        except Exception as error:  # noqa: BLE001 - a failed run is counted, not fatal
            reps.failed += n_payloads
            reps.errors.append(f"repro.run raised {error!r}")
            count += 1
            continue
        reps.walls.append(time.perf_counter() - begin)
        reps.digests.append(table_digest(table))
        stats = last_run_stats()
        reps.retries += stats.retries
        reps.failed += stats.retries
        if on_stats is not None:
            reps.failed += on_stats(stats)
        count += 1
    return time.perf_counter() - started


def _record_timings(outcome: Outcome, plan, reps: _Repetitions, wall: float) -> None:
    n_requests, _ = plan_size(plan)
    outcome.rates = [n_requests / run_wall for run_wall in reps.walls]
    outcome.latencies_ms = [run_wall * 1e3 for run_wall in reps.walls]
    outcome.served = n_requests * len(reps.walls)
    outcome.wall_s = wall


def _check_digests(reps: _Repetitions, expected: str, what: str) -> List[str]:
    problems = list(reps.errors)
    if not reps.digests:
        problems.append("no repetition completed")
    mismatched = sum(digest != expected for digest in reps.digests)
    if mismatched:
        problems.append(f"{mismatched} of {len(reps.digests)} result tables differ from {what}")
    return problems


# --------------------------------------------------------------- workloads


def run_serial(workload: str, seed: int, seconds: float, trace: bool) -> Outcome:
    """``paper_compare`` or ``datacenter_traffic``: serial plans in this process."""
    setups = [time_setup_probe(workload, seed) for _ in range(SETUP_ROUNDS)]
    plan = build_plan(workload, seed)
    repro.run(plan)  # warm-up: lazy imports and first-call set-up stay untimed
    outcome = Outcome(setup_s=median(setups))
    reps = _measure(outcome, workload, seed, plan, seconds, trace)
    if not trace:
        outcome.peak_rss_mb = peak_rss_mb()
    _, n_payloads = plan_size(plan)
    outcome.attempted = n_payloads * (len(reps.digests) + len(reps.errors))
    outcome.failed = reps.failed
    outcome.problems = _check_digests(
        reps, reference_digest(workload, seed), "the reference digest"
    )
    return outcome


def _measure(outcome: Outcome, workload: str, seed: int, plan, seconds: float, trace: bool,
             on_stats=None, traced_window=contextlib.nullcontext) -> _Repetitions:
    """The timed loop.  Traced: an untraced half, then a traced half inside
    ``traced_window()``, then the layer numbers and probes."""
    reps = _Repetitions()
    if not trace:
        wall = _repeat(plan, seconds, reps, on_stats=on_stats)
        _record_timings(outcome, plan, reps, wall)
        return reps
    untraced = _Repetitions()
    untraced_wall = _repeat(plan, seconds / 2, untraced, on_stats=on_stats)
    recorder = spans.SpanRecorder(f"{workload}-{seed}")
    with traced_window(), spans.install(recorder), recorder.track():
        traced_wall = _repeat(plan, seconds / 2, reps, recorder=recorder, on_stats=on_stats)
    outcome.recorder = recorder
    outcome.layers.update(_plan_layers(recorder, reps, plan, untraced, untraced_wall, traced_wall))
    outcome.layers.update(probes.common_probes(seed))
    outcome.layers["plans.build_s"] = probes.plan_build_s(lambda: build_plan(workload, seed))
    outcome.layers["dist.codec_us_per_payload"] = probes.codec_us_per_payload(
        recorder.captured_payloads
    )
    reps.digests.extend(untraced.digests)
    reps.failed += untraced.failed
    reps.errors.extend(untraced.errors)
    return reps


def _plan_layers(recorder, reps, plan, untraced, untraced_wall, traced_wall) -> Dict[str, float]:
    """Per-layer numbers of a traced plan loop (spans of the ``spans`` module)."""
    n_requests, _ = plan_size(plan)
    runs = max(len(reps.walls), 1)
    served = n_requests * runs
    selfs = recorder.self_times()
    execute_ns = recorder.totals("sim.execute")
    layers = {
        "plans.overhead_s": selfs.get("plans.run", 0) / 1e9 / runs,
        "sim.execute_s": execute_ns / 1e9 / runs,
        "sim.overhead_share": selfs.get("sim.execute", 0) / execute_ns if execute_ns else 0.0,
        "workloads.generate_us_per_req": _per_item_us(recorder, "workloads.generate"),
        "network.trace_us_per_req": _per_item_us(recorder, "network.trace"),
        "network.serve_us_per_req": (
            recorder.totals("network.serve") - recorder.totals("network.trace")
        ) / 1e3 / served,
        "resilience.retries": float(reps.retries + untraced.retries),
    }
    for algorithm in PAPER_ALGORITHMS:
        layers[f"algorithms.serve_us_per_req.{algorithm}"] = _per_item_us(
            recorder, "algorithms.serve", algorithm=algorithm
        )
    layers.update(trace_shares(recorder, untraced_wall / max(len(untraced.walls), 1) / n_requests,
                               traced_wall / runs / n_requests))
    return layers


def _per_item_us(recorder, name: str, **attrs) -> float:
    """Microseconds per item (request) across the outermost ``name`` spans."""
    items = recorder.items(name, **attrs)
    return recorder.totals(name, **attrs) / 1e3 / items if items else 0.0


def trace_shares(recorder, untraced_per_unit: float, traced_per_unit: float) -> Dict[str, float]:
    shares = recorder.attribution()
    wall = recorder.wall_ns()
    return {
        "trace.unattributed_share": shares["unattributed"] / wall if wall else 0.0,
        "trace.overhead_share": traced_per_unit / untraced_per_unit - 1.0,
    }


def run_fleet(seed: int, seconds: float, trace: bool) -> Outcome:
    """``fleet_dispatch``: this process coordinates two ``repro worker`` daemons."""
    setups = []
    workers: List[Daemon] = []
    clean_stops = True
    registry = default_registry()
    try:
        for round_index in range(SETUP_ROUNDS):
            started = time.perf_counter()
            for _ in range(FLEET_WORKERS):
                workers.append(_start_worker())
            time_setup_probe("fleet_dispatch", seed)
            setups.append(time.perf_counter() - started)
            if round_index < SETUP_ROUNDS - 1:
                clean_stops &= stop_all(workers)
                workers = []
        executor = "tcp://" + ",".join(w.address.removeprefix("tcp://") for w in workers)
        plan = plan_with_overrides(build_plan("fleet_dispatch", seed), executor=executor)
        repro.run(plan)  # warm-up: lazy imports and first connections stay untimed
        outcome = Outcome(setup_s=median(setups))

        def on_stats(stats) -> int:
            # payloads that fell back to local execution
            return stats.executed - stats.remote_executed

        @contextlib.contextmanager
        def fleet_window():
            before = _fleet_state(workers)
            started = time.perf_counter()
            yield
            wall = time.perf_counter() - started
            outcome.layers.update(_fleet_layers(before, _fleet_state(workers), wall))

        requeues_before = counter_value(registry.snapshot(), "repro_dist_requeues_total")
        reps = _measure(outcome, "fleet_dispatch", seed, plan, seconds, trace,
                        on_stats=on_stats, traced_window=fleet_window)
        outcome.peak_rss_mb = max([peak_rss_mb()] + [peak_rss_mb(w.pid) for w in workers])
    finally:
        clean_stops &= stop_all(workers)
    requeues = counter_value(registry.snapshot(), "repro_dist_requeues_total") - requeues_before
    _, n_payloads = plan_size(plan)
    outcome.attempted = n_payloads * (len(reps.digests) + len(reps.errors))
    outcome.failed = reps.failed + int(requeues)
    outcome.problems = _check_digests(
        reps, table_digest(repro.run(build_plan("fleet_dispatch", seed))), "a serial run"
    )
    if not clean_stops:
        outcome.problems.append("a worker missed its drain line and was killed")
    return outcome


def _start_worker() -> Daemon:
    return Daemon(
        ["worker", "--listen", "tcp://127.0.0.1:0", "--metrics", "tcp://127.0.0.1:0"],
        "worker listening on",
        "worker drained",
    )


def _fleet_state(workers: List[Daemon]) -> Dict[str, object]:
    return {
        "coordinator": default_registry().snapshot(),
        "workers": [scrape(worker.metrics_url)["metrics"] for worker in workers],
        "cpu": sum(cpu_seconds(worker.pid) for worker in workers),
    }


def _fleet_layers(before, after, wall: float) -> Dict[str, float]:
    coordinator = (before["coordinator"], after["coordinator"])
    lease_sum = lease_count = 0.0
    for old, new in zip(before["workers"], after["workers"]):
        total, count = hist_delta(old, new, "repro_worker_lease_seconds")
        lease_sum += total
        lease_count += count
    return {
        "dist.turnaround_ms_mean": hist_mean_ms(*coordinator, "repro_payload_turnaround_seconds"),
        "dist.queue_wait_ms_mean": hist_mean_ms(*coordinator, "repro_dist_queue_wait_seconds"),
        "dist.worker_lease_ms_mean": lease_sum / lease_count * 1e3 if lease_count else 0.0,
        "dist.worker_cpu_share": (after["cpu"] - before["cpu"]) / (FLEET_WORKERS * wall),
        "dist.leases": counter_delta(*coordinator, "repro_dist_leases_total"),
        "dist.requeues": counter_delta(*coordinator, "repro_dist_requeues_total"),
    }
