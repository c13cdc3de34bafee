"""Batch kernels across the plan/pool plumbing.

Workers choose the serve kernel per chunk, so a parallel run on the
vectorised kernels must be bit-identical to a serial run on the scalar loop —
the kernel choice is a pure throughput decision at every fan-out width.  Each
side is forced by monkeypatching the threshold; the persistent pool is
re-forked around the patch so its workers inherit the forced side.
"""

from __future__ import annotations

import contextlib
import sys

import pytest

import repro
from repro.core import backend as backend_mod
from repro.plans import RunConfig, SweepPlan, TrialPlan
from repro.plans.execute import build_trial_payloads
from repro.sim.parallel import shutdown_persistent_pool
from repro.sim.runner import TrialOutcome, aggregate, execute_payloads
from repro.workloads.spec import WorkloadSpec

ALGORITHMS = ["rotor-push", "random-push", "max-push", "static-oblivious"]
N_NODES = 63
N_REQUESTS = 400
N_TRIALS = 2

#: Threshold values that force each side of the kernel choice.
KERNEL_THRESHOLDS = {"vectorised": 1, "scalar": sys.maxsize}


WORKLOAD = WorkloadSpec.create(
    "combined-locality", n_elements=N_NODES, zipf_exponent=1.4, repeat_probability=0.5
)


@contextlib.contextmanager
def kernel_side(kernel):
    """Force ``kernel`` in this process and in freshly forked pool workers."""
    shutdown_persistent_pool()
    try:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(
                backend_mod, "BATCH_KERNEL_MIN_CHUNK", KERNEL_THRESHOLDS[kernel]
            )
            yield
    finally:
        shutdown_persistent_pool()


def aggregates(kernel, n_jobs, chunk_size=None):
    plan = TrialPlan(
        n_nodes=N_NODES,
        workload=WORKLOAD,
        algorithms=tuple(ALGORITHMS),
        config=RunConfig(
            n_requests=N_REQUESTS, n_trials=N_TRIALS, chunk_size=chunk_size
        ),
    )
    payloads = build_trial_payloads(plan)
    with kernel_side(kernel):
        results = execute_payloads(payloads, n_jobs)
    outcomes = {name: [] for name in ALGORITHMS}
    for payload, result in zip(payloads, results):
        outcomes[payload.algorithm_name].append(
            TrialOutcome(payload.algorithm_name, payload.trial, result)
        )
    outcome = aggregate(outcomes)
    return {
        name: (
            outcome[name].access_cost,
            outcome[name].adjustment_cost,
            outcome[name].total_cost,
        )
        for name in ALGORITHMS
    }


class TestKernelsAcrossJobs:
    def test_kernels_and_job_counts_are_bit_identical(self):
        reference = aggregates("scalar", n_jobs=1)
        for kernel in ("scalar", "vectorised"):
            for n_jobs in (1, 4):
                assert aggregates(kernel, n_jobs) == reference, (kernel, n_jobs)

    def test_chunk_size_and_kernels_compose(self):
        reference = aggregates("scalar", n_jobs=1)
        assert aggregates("vectorised", n_jobs=4, chunk_size=37) == reference

    @pytest.mark.parametrize("has_numpy", [True, False])
    def test_worker_streams_ndarrays_iff_numpy(self, monkeypatch, has_numpy):
        """Spec sources reach the serve loop as ndarrays exactly when NumPy
        is importable, whatever the algorithm."""
        if has_numpy and not backend_mod.HAS_NUMPY:
            pytest.skip("needs NumPy")
        import repro.sim.runner as runner_mod
        from repro.sim.runner import SpecSource, TrialPayload, _execute_trial
        from repro.workloads.spec import WorkloadSpec

        monkeypatch.setattr(backend_mod, "HAS_NUMPY", has_numpy)
        seen = {}
        original = runner_mod.simulate_stream

        def spy(name, chunks, **kwargs):
            chunks = list(chunks)
            seen[getattr(name, "name", name)] = {type(chunk).__name__ for chunk in chunks}
            return original(name, chunks, **kwargs)

        monkeypatch.setattr(runner_mod, "simulate_stream", spy)
        spec = WorkloadSpec.create("uniform", seed=1, n_elements=N_NODES)
        for algorithm in ("max-push", "rotor-push"):
            _execute_trial(
                TrialPayload(
                    algorithm=algorithm,
                    source=SpecSource(spec, 50),
                    n_nodes=N_NODES,
                    placement_seed=1,
                    algorithm_seed=2,
                    keep_records=False,
                    trial=0,
                )
            )
        transport = {"ndarray"} if has_numpy else {"list"}
        assert seen == {"max-push": transport, "rotor-push": transport}


class TestSweepKernels:
    def test_sweep_results_identical_across_kernels(self):
        def sweep_table(kernel, n_jobs):
            plan = SweepPlan(
                workload=WORKLOAD,
                algorithms=("rotor-push", "move-to-front"),
                points=({"p": 0.2}, {"p": 0.8}),
                bind={"p": "repeat_probability"},
                n_nodes=N_NODES,
                config=RunConfig(n_requests=N_REQUESTS, n_trials=N_TRIALS, n_jobs=n_jobs),
            )
            with kernel_side(kernel):
                return repro.run(plan).rows

        # sweeps flatten to the same payload list; only the kernel differs
        reference = sweep_table("scalar", 1)
        assert sweep_table("vectorised", 1) == reference
        assert sweep_table("vectorised", 4) == reference


class TestSharedSourceMemo:
    @pytest.mark.parametrize("has_numpy", [True, False])
    def test_shared_chunks_memo_uses_the_numpy_transport(self, monkeypatch, has_numpy):
        """A shared source is generated once and streamed in the transport
        the environment supports."""
        if has_numpy and not backend_mod.HAS_NUMPY:
            pytest.skip("array transport needs NumPy")
        from repro.sim.runner import SpecSource, _chunks_of, _shared_chunks_cache

        monkeypatch.setattr(backend_mod, "HAS_NUMPY", has_numpy)
        spec = WORKLOAD.with_seed(3)
        source = SpecSource(spec, 50, 16, shared=True)
        try:
            chunks = _chunks_of(source)
            assert _chunks_of(source) is chunks
            expected = backend_mod.np.ndarray if has_numpy else list
            assert all(isinstance(chunk, expected) for chunk in chunks)
        finally:
            _shared_chunks_cache.clear()
