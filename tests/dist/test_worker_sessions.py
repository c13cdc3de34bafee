"""Worker sessions over time: heartbeat liveness and per-session hygiene.

* A payload that computes for several lease timeouts still completes
  remotely: the worker's heartbeats, not its results, keep the lease alive.
* Many back-to-back coordinator sessions against one worker daemon leave no
  thread and no socket behind.
"""

from __future__ import annotations

import gc
import threading
import time
import warnings

from repro.algorithms.registry import AlgorithmSpec
from repro.dist.coordinator import run_distributed
from repro.dist.worker import WorkerServer
from repro.resilience import ResilienceStats, RetryPolicy
from repro.resilience.store import result_to_dict
from repro.sim.runner import SpecSource, TrialPayload, _execute_trial
from repro.telemetry.registry import MetricsRegistry
from repro.workloads.spec import WorkloadSpec

FAST_RETRY = RetryPolicy(max_retries=2, backoff_base=0.0)

#: Lease timeout of the liveness pin; the payload runs at least 3x longer.
LEASE_SECONDS = 0.3


def small_payloads(n: int):
    spec = WorkloadSpec.create(
        "combined-locality", n_elements=15, zipf_exponent=1.4, repeat_probability=0.4
    )
    return [
        TrialPayload(
            algorithm=AlgorithmSpec.coerce("rotor-push"),
            source=SpecSource(spec.with_seed(trial), n_requests=80, chunk_size=32),
            n_nodes=15,
            placement_seed=100 + trial,
            algorithm_seed=200 + trial,
            keep_records=False,
            trial=trial,
        )
        for trial in range(n)
    ]


def test_heartbeats_keep_a_long_lease_alive(long_payload):
    assert long_payload.seconds >= 3 * LEASE_SECONDS
    registry = MetricsRegistry()
    worker = WorkerServer(registry=registry).start()
    try:
        stats = ResilienceStats()
        results = run_distributed(
            [long_payload.payload],
            f"{worker.address}?lease={LEASE_SECONDS}&heartbeat=0.05",
            retry=FAST_RETRY,
            stats=stats,
        )
    finally:
        worker.stop()
    assert [result_to_dict(r) for r in results] == [long_payload.document]
    assert stats.lease_expiries == 0
    assert stats.remote_executed == 1
    assert not stats.degraded_remote
    assert registry.get("repro_worker_heartbeats_total").value() > 0


def _settle(baseline: int, timeout: float = 5.0) -> int:
    """Wait for the thread count to fall back to ``baseline``; return it."""
    deadline = time.monotonic() + timeout
    while threading.active_count() > baseline and time.monotonic() < deadline:
        time.sleep(0.01)
    return threading.active_count()


def test_back_to_back_sessions_leave_nothing_behind():
    payloads = small_payloads(3)
    expected = [result_to_dict(_execute_trial(payload)) for payload in payloads]
    worker = WorkerServer(registry=MetricsRegistry()).start()
    try:
        baseline = threading.active_count()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for session in range(50):
                results = run_distributed(payloads, worker.address, retry=FAST_RETRY)
                assert [result_to_dict(r) for r in results] == expected
                assert _settle(baseline) == baseline, f"thread leak after session {session}"
            gc.collect()
        leaks = [w for w in caught if issubclass(w.category, ResourceWarning)]
        assert not leaks, [str(w.message) for w in leaks]
        assert worker.sessions == 50
    finally:
        worker.stop()
