"""Parallel trial execution: n_jobs > 1 must be bit-identical to serial runs.

The acceptance contract of the parallel subsystem is determinism: per-trial
seeds are pure functions of the trial index and results are reassembled in
payload order, so fanning work out over a process pool must change wall-clock
time only, never a single output byte.
"""

from __future__ import annotations

import pytest

import repro
from repro.exceptions import ExperimentError
from repro.plans import RunConfig, SweepPlan, TrialPlan
from repro.plans.execute import build_trial_payloads
from repro.sim.parallel import map_ordered, resolve_n_jobs
from repro.sim.runner import TrialOutcome, aggregate, execute_payloads
from repro.workloads.spec import WorkloadSpec

N_NODES = 63
N_REQUESTS = 400
ALGORITHMS = ["rotor-push", "random-push", "static-oblivious"]
WORKLOAD = WorkloadSpec.create(
    "combined-locality", n_elements=N_NODES, zipf_exponent=1.4, repeat_probability=0.5
)


def _plan(n_trials: int, **config) -> TrialPlan:
    return TrialPlan(
        n_nodes=N_NODES,
        workload=WORKLOAD,
        algorithms=tuple(ALGORITHMS),
        config=RunConfig(n_requests=N_REQUESTS, n_trials=n_trials, **config),
    )


def _outcomes(plan: TrialPlan, n_jobs: int):
    payloads = build_trial_payloads(plan)
    outcomes = {name: [] for name in ALGORITHMS}
    for payload, result in zip(payloads, execute_payloads(payloads, n_jobs)):
        outcomes[payload.algorithm_name].append(
            TrialOutcome(payload.algorithm_name, payload.trial, result)
        )
    return outcomes


class TestResolveNJobs:
    def test_default_is_serial(self):
        assert resolve_n_jobs(None) == 1
        assert resolve_n_jobs(1) == 1

    def test_positive_passthrough(self):
        assert resolve_n_jobs(3) == 3

    def test_negative_means_all_cpus(self):
        assert resolve_n_jobs(-1) >= 1

    def test_zero_rejected(self):
        with pytest.raises(ExperimentError):
            resolve_n_jobs(0)


class TestMapOrdered:
    def test_serial_preserves_order(self):
        assert map_ordered(abs, [-3, 1, -2], n_jobs=1) == [3, 1, 2]

    def test_parallel_preserves_order(self):
        assert map_ordered(abs, list(range(-8, 0)), n_jobs=2) == list(range(8, 0, -1))


class TestParallelDeterminism:
    def test_trial_plan_outcomes_identical(self):
        plan = _plan(n_trials=3, base_seed=5)
        serial = _outcomes(plan, 1)
        parallel = _outcomes(plan, 2)
        assert serial.keys() == parallel.keys()
        for name in serial:
            assert [t.trial for t in serial[name]] == [t.trial for t in parallel[name]]
            for left, right in zip(serial[name], parallel[name]):
                assert left.result.to_dict() == right.result.to_dict()

    def test_aggregates_identical(self):
        plan = _plan(n_trials=2)
        serial = aggregate(_outcomes(plan, 1))
        parallel = aggregate(_outcomes(plan, 2))
        for name in serial:
            assert serial[name].access_cost == parallel[name].access_cost
            assert serial[name].adjustment_cost == parallel[name].adjustment_cost
            assert serial[name].total_cost == parallel[name].total_cost

    def test_sweep_plan_table_byte_identical(self):
        def table(n_jobs):
            return repro.run(
                SweepPlan(
                    name="parallel-check",
                    workload=WorkloadSpec.create("temporal", n_elements=N_NODES),
                    algorithms=tuple(ALGORITHMS),
                    points=({"p": 0.0}, {"p": 0.6}),
                    bind={"p": "repeat_probability"},
                    n_nodes=N_NODES,
                    config=RunConfig(
                        n_requests=N_REQUESTS, n_trials=2, base_seed=42, n_jobs=n_jobs
                    ),
                )
            )

        assert table(1).to_json() == table(2).to_json()
