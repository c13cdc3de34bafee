"""Spec-shipped streaming pipeline: determinism, laziness and pool reuse.

The acceptance contract of the rebuilt generation pipeline:

* compiled plan payloads carry :class:`repro.sim.runner.SpecSource` (not
  sequences) for every spec workload, and building them never calls
  ``generate`` in the parent process;
* a parallel streaming run (``n_jobs=4``) is byte-identical to the serial
  materialised baseline at the same seeds, for both trial and sweep plans;
* ``map_ordered`` reuses one persistent process pool across calls.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

import repro
from repro.exceptions import ExperimentError
from repro.experiments import build_q5_costs_plan
from repro.plans import RunConfig, SweepPlan, TrialPlan
from repro.plans.execute import build_payloads, build_sweep_payloads, build_trial_payloads
from repro.sim import parallel
from repro.sim.engine import simulate, simulate_stream
from repro.sim.runner import (
    SequenceSource,
    SpecSource,
    TrialOutcome,
    aggregate,
    execute_payloads,
)
from repro.workloads import (
    TemporalWorkload,
    UniformWorkload,
    WorkloadGenerator,
    WorkloadSpec,
    ZipfWorkload,
)
from repro.workloads.base import WorkloadGenerator as _Base
from repro.workloads.spec import build_workload

N_NODES = 63
N_REQUESTS = 400
ALGORITHMS = ["rotor-push", "random-push", "static-opt", "static-oblivious"]
WORKLOAD = WorkloadSpec.create(
    "combined-locality", n_elements=N_NODES, zipf_exponent=1.4, repeat_probability=0.5
)


def _plan(algorithms=ALGORITHMS, workload=WORKLOAD, **config) -> TrialPlan:
    config.setdefault("n_requests", N_REQUESTS)
    return TrialPlan(
        n_nodes=N_NODES,
        workload=workload,
        algorithms=tuple(algorithms),
        config=RunConfig(**config),
    )


def _outcomes(payloads, n_jobs=1):
    """Execute payloads; return the per-algorithm outcome map."""
    outcomes = {}
    for payload, result in zip(payloads, execute_payloads(payloads, n_jobs)):
        outcomes.setdefault(payload.algorithm_name, []).append(
            TrialOutcome(payload.algorithm_name, payload.trial, result)
        )
    return outcomes


def _materialised(payloads):
    """The same payloads with every spec source generated in the parent."""
    return [
        replace(
            payload,
            source=SequenceSource(
                tuple(build_workload(payload.source.spec).generate(payload.source.n_requests))
            ),
        )
        for payload in payloads
    ]


class _SpeclessWorkload(WorkloadGenerator):
    """A workload without a spec: must travel as a materialised sequence."""

    name = "specless"

    def generate(self, n_requests):
        self._check_length(n_requests)
        return [self._rng.randrange(self.n_elements) for _ in range(n_requests)]


class TestPayloadConstruction:
    def test_spec_able_workloads_ship_as_specs(self):
        payloads = build_trial_payloads(_plan(["rotor-push"], n_trials=3))
        sources = [payload.source for payload in payloads]
        assert all(isinstance(source, SpecSource) for source in sources)
        assert [source.spec.seed for source in sources] == [0, 1, 2]

    def test_factory_may_return_specs_directly(self):
        plan = _plan(
            ["rotor-push"],
            WorkloadSpec.create("uniform", n_elements=N_NODES),
            n_requests=50,
            n_trials=2,
            base_seed=7,
        )
        payloads = build_trial_payloads(plan)
        assert [payload.source.spec.seed for payload in payloads] == [7, 8]
        for payload, result in zip(payloads, execute_payloads(payloads, 1)):
            reference = simulate(
                "rotor-push",
                UniformWorkload(N_NODES, seed=payload.source.spec.seed).generate(50),
                n_nodes=N_NODES,
                placement_seed=payload.placement_seed,
                seed=payload.algorithm_seed,
                metadata={"trial": payload.trial},
            )
            assert result.to_dict() == reference.to_dict()

    def test_specless_workload_falls_back_to_sequence(self):
        payloads = build_trial_payloads(_plan(["rotor-push"], n_requests=50, n_trials=2))
        payloads = [
            replace(
                payload,
                source=SequenceSource(
                    tuple(_SpeclessWorkload(N_NODES, payload.trial).generate(50))
                ),
            )
            for payload in payloads
        ]
        sources = [payload.source for payload in payloads]
        assert all(isinstance(source, SequenceSource) for source in sources)
        assert all(len(source.sequence) == 50 for source in sources)
        for payload, result in zip(payloads, execute_payloads(payloads, 2)):
            reference = simulate(
                "rotor-push",
                payload.source.sequence,
                n_nodes=N_NODES,
                placement_seed=payload.placement_seed,
                seed=payload.algorithm_seed,
                metadata={"trial": payload.trial},
            )
            assert result.to_dict() == reference.to_dict()

    def test_trace_workloads_ship_truncated_sequences_not_trace_specs(self):
        # corpus traces are data: payloads ship the truncated sequence, far
        # lighter than a fixed-sequence spec embedding the whole trace
        payloads = build_payloads(build_q5_costs_plan("tiny", max_requests=50))
        assert all(isinstance(payload.source, SequenceSource) for payload in payloads)
        assert all(len(payload.source.sequence) == 50 for payload in payloads)

    def test_spec_universe_mismatch_rejected(self):
        plan = SweepPlan(
            workload=WorkloadSpec.create("uniform", n_elements=31),
            algorithms=("rotor-push",),
            points=({"n_nodes": N_NODES},),
            config=RunConfig(n_requests=10, n_trials=1),
        )
        with pytest.raises(ExperimentError):
            build_sweep_payloads(plan)

    def test_parent_never_generates_for_spec_workloads(self, monkeypatch):
        def forbidden(self, n_requests):
            raise AssertionError("generate() called in the parent process")

        # patch every concrete generator the sweep could touch
        monkeypatch.setattr(_Base, "generate", forbidden)
        monkeypatch.setattr(TemporalWorkload, "generate", forbidden)
        monkeypatch.setattr(UniformWorkload, "generate", forbidden)
        probabilities = (0.0, 0.5, 0.9)
        plan = SweepPlan(
            workload=WorkloadSpec.create("temporal", n_elements=N_NODES),
            algorithms=tuple(ALGORITHMS),
            points=tuple({"p": p} for p in probabilities),
            bind={"p": "repeat_probability"},
            n_nodes=N_NODES,
            # paper scale: materialising this would be obvious
            config=RunConfig(n_requests=10**6, n_trials=3),
        )
        payloads = build_sweep_payloads(plan)
        assert len(payloads) == 3 * 3 * len(ALGORITHMS)
        assert all(isinstance(p.source, SpecSource) for p in payloads)
        per_point = [
            sum(p.source.spec.get("repeat_probability") == value for p in payloads)
            for value in probabilities
        ]
        assert per_point == [len(ALGORITHMS) * 3] * 3


class TestStreamingDeterminism:
    def test_stream_equals_materialised_simulation(self):
        workload = ZipfWorkload(N_NODES, 1.8, seed=3)
        sequence = workload.generate(N_REQUESTS)
        materialised = simulate(
            "rotor-push", sequence, n_nodes=N_NODES, placement_seed=1, keep_records=False
        )
        streamed = simulate_stream(
            "rotor-push",
            ZipfWorkload(N_NODES, 1.8, seed=3).iter_requests(N_REQUESTS, 64),
            n_nodes=N_NODES,
            placement_seed=1,
            keep_records=False,
        )
        assert streamed.to_dict() == materialised.to_dict()

    def test_stream_supports_offline_preparation(self):
        # static-opt must see the whole sequence; run_stream materialises it
        workload = UniformWorkload(N_NODES, seed=2)
        sequence = workload.generate(N_REQUESTS)
        materialised = simulate(
            "static-opt", sequence, n_nodes=N_NODES, placement_seed=1, keep_records=False
        )
        streamed = simulate_stream(
            "static-opt",
            UniformWorkload(N_NODES, seed=2).iter_requests(N_REQUESTS, 64),
            n_nodes=N_NODES,
            placement_seed=1,
            keep_records=False,
        )
        assert streamed.to_dict() == materialised.to_dict()

    def test_runner_spec_path_equals_materialised_baseline(self):
        payloads = build_trial_payloads(_plan(n_trials=3, base_seed=5, chunk_size=97))
        # serial materialised baseline: generate in the parent, ship sequences
        baseline = _outcomes(_materialised(payloads), n_jobs=1)
        # spec-shipped streaming path, parallel
        streaming = _outcomes(payloads, n_jobs=4)
        assert baseline.keys() == streaming.keys()
        for name in baseline:
            for left, right in zip(baseline[name], streaming[name]):
                assert left.result.to_dict() == right.result.to_dict()

    @pytest.mark.parametrize("chunk_size", [None, 61])
    def test_sweep_serial_vs_parallel_byte_identical(self, chunk_size):
        def table(n_jobs):
            return repro.run(
                SweepPlan(
                    name="stream-check",
                    workload=WorkloadSpec.create(
                        "combined-locality", n_elements=N_NODES, zipf_exponent=1.2
                    ),
                    algorithms=tuple(ALGORITHMS),
                    points=({"p": 0.0}, {"a": 1.6, "p": 0.6}),
                    bind={"p": "repeat_probability", "a": "zipf_exponent"},
                    n_nodes=N_NODES,
                    config=RunConfig(
                        n_requests=N_REQUESTS,
                        n_trials=2,
                        base_seed=42,
                        n_jobs=n_jobs,
                        chunk_size=chunk_size,
                    ),
                )
            )

        assert table(1).to_json() == table(4).to_json()

    def test_compare_algorithms_chunk_size_invariant(self):
        def aggregated(chunk_size):
            plan = _plan(["rotor-push", "move-half"], n_trials=2, chunk_size=chunk_size)
            return aggregate(_outcomes(build_trial_payloads(plan)))

        small = aggregated(17)
        large = aggregated(10_000)
        for name in small:
            assert small[name].total_cost == large[name].total_cost


class TestPersistentPool:
    def test_pool_is_reused_across_calls(self):
        parallel.shutdown_persistent_pool()
        parallel.map_ordered(abs, list(range(-8, 0)), n_jobs=2)
        first = parallel._pool
        assert first is not None
        parallel.map_ordered(abs, list(range(-8, 0)), n_jobs=2)
        assert parallel._pool is first

    def test_pool_is_replaced_when_size_changes(self):
        parallel.shutdown_persistent_pool()
        parallel.map_ordered(abs, list(range(-8, 0)), n_jobs=2)
        first = parallel._pool
        parallel.map_ordered(abs, list(range(-8, 0)), n_jobs=3)
        assert parallel._pool is not first
        parallel.shutdown_persistent_pool()
        assert parallel._pool is None

    def test_serial_calls_do_not_create_a_pool(self):
        parallel.shutdown_persistent_pool()
        parallel.map_ordered(abs, [-1, -2], n_jobs=1)
        assert parallel._pool is None

    def test_pool_is_rebuilt_after_new_workload_registration(self):
        # forked workers snapshot the registry at pool creation; registering
        # a new kind must force a rebuild so workers can build it
        from repro.workloads import register_workload

        parallel.shutdown_persistent_pool()
        parallel.map_ordered(abs, list(range(-8, 0)), n_jobs=2)
        first = parallel._pool
        register_workload("test-pool-rebuild-kind")(
            lambda params, seed: _SpeclessWorkload(int(params["n_elements"]), seed)
        )
        parallel.map_ordered(abs, list(range(-8, 0)), n_jobs=2)
        assert parallel._pool is not first
        parallel.shutdown_persistent_pool()


class TestSharedStreamMemo:
    def test_shared_sources_generate_once_per_trial(self, monkeypatch):
        import repro.sim.runner as runner_module

        builds = []
        real_build = runner_module.build_workload
        monkeypatch.setattr(
            runner_module,
            "build_workload",
            lambda spec: builds.append(spec) or real_build(spec),
        )
        runner_module._shared_chunks_cache.clear()
        repro.run(
            _plan(["rotor-push", "move-half", "static-oblivious"], n_requests=100, n_trials=2)
        )
        # one build per trial, not one per (trial, algorithm)
        assert len(builds) == 2
        runner_module._shared_chunks_cache.clear()

    def test_single_algorithm_sources_stay_unshared(self):
        payloads = build_trial_payloads(_plan(["rotor-push"], n_requests=100, n_trials=2))
        assert all(not p.source.shared for p in payloads)
        both = build_trial_payloads(
            _plan(["rotor-push", "move-half"], n_requests=100, n_trials=2)
        )
        assert all(p.source.shared for p in both)

    def test_shared_and_unshared_results_identical(self):
        def outcomes(algorithms):
            plan = _plan(algorithms, n_requests=200, n_trials=2, base_seed=3)
            return _outcomes(build_trial_payloads(plan))

        shared = outcomes(["rotor-push", "move-half"])
        lone_rotor = outcomes(["rotor-push"])
        for left, right in zip(shared["rotor-push"], lone_rotor["rotor-push"]):
            assert left.result.to_dict() == right.result.to_dict()
