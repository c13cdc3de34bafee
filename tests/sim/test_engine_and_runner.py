"""Tests for the simulation engine, trial-plan payloads and algorithm comparison."""

from __future__ import annotations

import pytest

import repro
from repro.exceptions import ExperimentError, PlanError
from repro.plans import RunConfig, TrialPlan
from repro.plans.execute import build_trial_payloads
from repro.sim.engine import simulate, simulate_algorithm_on_sequence, simulate_workload
from repro.sim.runner import TrialOutcome, aggregate, execute_payloads
from repro.workloads.spec import WorkloadSpec, build_workload
from repro.algorithms import make_algorithm
from repro.workloads import UniformWorkload


class TestEngine:
    def test_simulate_by_name(self):
        result = simulate("rotor-push", [1, 2, 3, 1], n_nodes=15, placement_seed=1)
        assert result.algorithm == "rotor-push"
        assert result.n_requests == 4
        assert result.metadata["placement_seed"] == 1

    def test_simulate_prebuilt_algorithm(self):
        algorithm = make_algorithm("move-half", n_nodes=15, placement_seed=2)
        result = simulate_algorithm_on_sequence(algorithm, [3, 4, 3], metadata={"x": 1})
        assert result.metadata["x"] == 1

    def test_locality_stats_attached_when_requested(self):
        result = simulate(
            "static-oblivious",
            [1, 1, 2],
            n_nodes=15,
            placement_seed=1,
            with_locality_stats=True,
        )
        assert result.metadata["locality"]["length"] == 3.0

    def test_simulate_workload_uses_universe_size(self):
        workload = UniformWorkload(31, seed=3)
        result = simulate_workload("rotor-push", workload, 100, placement_seed=1)
        assert result.n_nodes == 31
        assert result.metadata["workload"]["workload"] == "uniform"

    def test_simulate_workload_negative_requests(self):
        with pytest.raises(ExperimentError):
            simulate_workload("rotor-push", UniformWorkload(15, seed=1), -1)


def trial_plan(n_nodes, workload, algorithms, **config) -> TrialPlan:
    return TrialPlan(
        n_nodes=n_nodes,
        workload=workload,
        algorithms=tuple(algorithms),
        config=RunConfig(**config),
    )


def trial_outcomes(plan: TrialPlan):
    """Run a trial plan's payloads; return the per-algorithm outcome map."""
    payloads = build_trial_payloads(plan)
    outcomes = {name: [] for name in plan.algorithm_names()}
    for payload, result in zip(payloads, execute_payloads(payloads, 1)):
        outcomes[payload.algorithm_name].append(
            TrialOutcome(payload.algorithm_name, payload.trial, result)
        )
    return outcomes


class TestTrialPlanPayloads:
    def test_invalid_configuration(self):
        with pytest.raises(PlanError):
            RunConfig(n_requests=10, n_trials=0)
        with pytest.raises(PlanError):
            RunConfig(n_requests=-1)

    def test_trial_sequences_are_seeded_independently(self):
        plan = trial_plan(
            63, WorkloadSpec.create("uniform", n_elements=63), ["rotor-push"],
            n_requests=50, n_trials=3, base_seed=5,
        )
        sequences = [
            build_workload(payload.source.spec).generate(50)
            for payload in build_trial_payloads(plan)
        ]
        assert len(sequences) == 3
        assert sequences[0] != sequences[1]

    def test_workload_universe_must_match(self):
        with pytest.raises(PlanError):
            trial_plan(
                63, WorkloadSpec.create("uniform", n_elements=31), ["rotor-push"],
                n_requests=10, n_trials=1,
            )

    def test_all_algorithms_see_the_same_sequences(self):
        plan = trial_plan(
            31, WorkloadSpec.create("uniform", n_elements=31),
            ["static-oblivious", "static-opt"],
            n_requests=60, n_trials=2, base_seed=1,
        )
        payloads = build_trial_payloads(plan)
        for trial in range(2):
            first, second = payloads[2 * trial], payloads[2 * trial + 1]
            assert first.source == second.source and first.source.shared
        outcomes = trial_outcomes(plan)
        for trial in range(2):
            first = outcomes["static-oblivious"][trial].result
            second = outcomes["static-opt"][trial].result
            assert first.n_requests == second.n_requests

    def test_aggregate_summarises_trials(self):
        plan = trial_plan(
            31, WorkloadSpec.create("uniform", n_elements=31), ["rotor-push"],
            n_requests=100, n_trials=3, base_seed=2,
        )
        aggregated = aggregate(trial_outcomes(plan))
        summary = aggregated["rotor-push"]
        assert summary.n_trials == 3
        assert summary.mean_total_cost > 0
        assert summary.total_cost["min"] <= summary.mean_total_cost <= summary.total_cost["max"]

    def test_reproducibility_of_full_runs(self):
        def run_once():
            plan = trial_plan(
                31,
                WorkloadSpec.create("temporal", n_elements=31, repeat_probability=0.5),
                ["rotor-push", "random-push"],
                n_requests=80, n_trials=2, base_seed=9,
            )
            return {
                name: [trial.result.total_cost for trial in trials]
                for name, trials in trial_outcomes(plan).items()
            }

        assert run_once() == run_once()


class TestCompareAlgorithms:
    def test_compare_returns_all_algorithms(self):
        table = repro.run(
            trial_plan(
                63,
                WorkloadSpec.create("temporal", n_elements=63, repeat_probability=0.8),
                ["rotor-push", "static-oblivious"],
                n_requests=400, n_trials=2,
            )
        )
        assert {row["algorithm"] for row in table.rows} == {"rotor-push", "static-oblivious"}

    def test_self_adjustment_beats_static_on_high_locality(self):
        table = repro.run(
            trial_plan(
                255,
                WorkloadSpec.create("temporal", n_elements=255, repeat_probability=0.9),
                ["rotor-push", "static-oblivious"],
                n_requests=2_000, n_trials=2,
            )
        )
        costs = {row["algorithm"]: row["mean_total_cost"] for row in table.rows}
        assert costs["rotor-push"] < costs["static-oblivious"]
