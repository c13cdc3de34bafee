"""Shared fixtures of the distributed-executor tests."""

from __future__ import annotations

import time
from typing import NamedTuple

import pytest

from repro.algorithms.registry import AlgorithmSpec
from repro.resilience.store import result_to_dict
from repro.sim.runner import SpecSource, TrialPayload, _execute_trial
from repro.workloads.spec import WorkloadSpec


class LongPayload(NamedTuple):
    """A payload that computes for at least ``LONG_PAYLOAD_SECONDS``."""

    payload: TrialPayload
    document: dict
    seconds: float


#: Minimum serial runtime of the ``long_payload`` fixture.
LONG_PAYLOAD_SECONDS = 1.0


def _max_push_payload(n_requests: int) -> TrialPayload:
    spec = WorkloadSpec.create(
        "combined-locality", n_elements=255, zipf_exponent=1.4, repeat_probability=0.4
    )
    return TrialPayload(
        algorithm=AlgorithmSpec.coerce("max-push"),
        source=SpecSource(spec.with_seed(7), n_requests=n_requests, chunk_size=4096),
        n_nodes=255,
        placement_seed=11,
        algorithm_seed=13,
        keep_records=False,
        trial=0,
    )


@pytest.fixture(scope="session")
def long_payload() -> LongPayload:
    """One max-push payload sized on this machine to run ~1–2 s serially.

    The serial run doubles as the reference result: its request count is
    scaled up from a short probe until the measured runtime reaches
    :data:`LONG_PAYLOAD_SECONDS`.
    """
    n_requests = 20_000
    while True:
        payload = _max_push_payload(n_requests)
        started = time.perf_counter()
        result = _execute_trial(payload)
        seconds = time.perf_counter() - started
        if seconds >= LONG_PAYLOAD_SECONDS:
            return LongPayload(payload, result_to_dict(result), seconds)
        n_requests = int(n_requests * 1.3 * LONG_PAYLOAD_SECONDS / max(seconds, 0.01)) + 1
