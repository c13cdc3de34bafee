"""Vectorised-kernel vs scalar-loop equivalence property tests.

``serve_batch`` settles a chunk with a vectorised NumPy kernel when the chunk
is long enough (:data:`repro.core.backend.BATCH_KERNEL_MIN_CHUNK`) and with
the canonical scalar fast loop otherwise.  The kernels are a pure throughput
optimisation: for every registered algorithm, every registered workload kind,
every chunking and both record modes, they must produce exactly the same final
placement, ledger totals and per-request cost records as the scalar loop.
These tests force each side by monkeypatching the threshold and pin that
contract, including the chunk-boundary edge cases (chunk 1, chunk larger than
the stream, uneven tail) and the simulated NumPy-less environment (scalar
loops only, plus the pure-Python Zipf sampler).
"""

from __future__ import annotations

import sys

import pytest

from repro.algorithms.registry import available_algorithms, make_algorithm
from repro.core import backend as backend_mod
from repro.core.cost import CostLedger
from repro.exceptions import CostAccountingError, WorkloadError
from repro.workloads.spec import WorkloadSpec, build_workload

#: Threshold values that force each side of the kernel choice.
KERNEL_THRESHOLDS = {"vectorised": 1, "scalar": sys.maxsize}

N_NODES = 63
N_REQUESTS = 300
PLACEMENT_SEED = 11
ALGORITHM_SEED = 13

#: One spec per registered workload kind (universe size 63 throughout).
WORKLOAD_SPECS = {
    "uniform": WorkloadSpec.create("uniform", seed=5, n_elements=N_NODES),
    "zipf": WorkloadSpec.create("zipf", seed=5, n_elements=N_NODES, exponent=1.4),
    "temporal": WorkloadSpec.create(
        "temporal",
        seed=5,
        n_elements=N_NODES,
        repeat_probability=0.6,
        base=WorkloadSpec.create("zipf", seed=6, n_elements=N_NODES, exponent=2.0),
    ),
    "combined-locality": WorkloadSpec.create(
        "combined-locality",
        seed=5,
        n_elements=N_NODES,
        zipf_exponent=1.4,
        repeat_probability=0.5,
    ),
    "markov": WorkloadSpec.create(
        "markov",
        seed=5,
        n_elements=N_NODES,
        n_neighbours=4,
        self_loop=0.3,
        neighbour_probability=0.4,
    ),
    "mixture": WorkloadSpec.create(
        "mixture",
        seed=5,
        n_elements=N_NODES,
        components=(
            WorkloadSpec.create("uniform", seed=7, n_elements=N_NODES),
            WorkloadSpec.create("zipf", seed=8, n_elements=N_NODES, exponent=1.8),
        ),
        weights=(1.0, 2.0),
    ),
    "fixed-sequence": WorkloadSpec.create(
        "fixed-sequence",
        n_elements=N_NODES,
        sequence=tuple((7 * i + 3) % N_NODES for i in range(N_REQUESTS)),
    ),
}

#: Chunkings covering the edge cases: single-request chunks, an uneven tail
#: (300 = 42 * 7 + 6), a power-of-two mid-size, and one chunk larger than the
#: whole stream.
CHUNK_SIZES = (1, 7, 64, N_REQUESTS + 1)


def serve_outcome(algorithm, kind, kernel, chunk_size, keep_records):
    """Serve the workload stream on one kernel side; return every observable.

    The scalar side streams list chunks (the canonical oracle); the
    vectorised side streams the runner's transport (ndarrays with NumPy).
    """
    workload = build_workload(WORKLOAD_SPECS[kind])
    as_array = kernel == "vectorised" and backend_mod.HAS_NUMPY
    instance = make_algorithm(
        algorithm,
        n_nodes=N_NODES,
        placement_seed=PLACEMENT_SEED,
        seed=ALGORITHM_SEED,
        keep_records=keep_records,
    )
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(backend_mod, "BATCH_KERNEL_MIN_CHUNK", KERNEL_THRESHOLDS[kernel])
        result = instance.run_stream(
            workload.iter_requests(N_REQUESTS, chunk_size, as_array=as_array)
        )
    network = instance.network
    return {
        "n_requests": result.n_requests,
        "access": result.total_access_cost,
        "adjustment": result.total_adjustment_cost,
        "records": list(result.per_request),
        "placement": network.placement(),
        "rotor": list(network.rotor._pointers) if network.rotor is not None else None,
    }


@pytest.fixture(scope="module")
def scalar_baselines():
    """Canonical scalar-loop outcome per (algorithm, kind, keep_records)."""
    baselines = {}
    for algorithm in available_algorithms():
        for kind in WORKLOAD_SPECS:
            for keep_records in (False, True):
                baselines[(algorithm, kind, keep_records)] = serve_outcome(
                    algorithm, kind, "scalar", N_REQUESTS, keep_records
                )
    return baselines


@pytest.mark.parametrize("kind", sorted(WORKLOAD_SPECS))
@pytest.mark.parametrize("algorithm", available_algorithms())
def test_vectorised_kernels_match_scalar_loop(algorithm, kind, scalar_baselines):
    """Vectorised kernels == scalar loop for every chunking, totals-only mode."""
    expected = scalar_baselines[(algorithm, kind, False)]
    for chunk_size in CHUNK_SIZES:
        outcome = serve_outcome(algorithm, kind, "vectorised", chunk_size, False)
        assert outcome == expected, (algorithm, kind, chunk_size)


@pytest.mark.parametrize("kind", ["combined-locality", "fixed-sequence"])
@pytest.mark.parametrize("algorithm", available_algorithms())
def test_vectorised_kernels_match_records_too(algorithm, kind, scalar_baselines):
    """Per-request cost records are byte-identical across kernels/chunkings."""
    expected = scalar_baselines[(algorithm, kind, True)]
    for chunk_size in (1, 7, N_REQUESTS + 1):
        outcome = serve_outcome(algorithm, kind, "vectorised", chunk_size, True)
        assert outcome == expected, (algorithm, kind, chunk_size)


@pytest.mark.parametrize("algorithm", available_algorithms())
def test_scalar_loop_chunking_is_semantics_free(algorithm, scalar_baselines):
    """Chunk size never changes scalar-loop results either."""
    expected = scalar_baselines[(algorithm, "combined-locality", False)]
    for chunk_size in CHUNK_SIZES:
        outcome = serve_outcome(algorithm, "combined-locality", chunk_size=chunk_size,
                                kernel="scalar", keep_records=False)
        assert outcome == expected, (algorithm, chunk_size)


class TestServeBatchDirect:
    """Direct serve_batch calls (outside run_stream) behave like serve()."""

    @pytest.fixture
    def vectorised(self, monkeypatch):
        monkeypatch.setattr(
            backend_mod, "BATCH_KERNEL_MIN_CHUNK", KERNEL_THRESHOLDS["vectorised"]
        )

    def _pair(self):
        return tuple(
            make_algorithm(
                "rotor-push", n_nodes=N_NODES, placement_seed=1, keep_records=True
            )
            for _ in range(2)
        )

    def test_empty_chunk_serves_nothing(self, vectorised):
        batched, _ = self._pair()
        assert batched.serve_batch([]) == 0
        assert batched.network.ledger.n_requests == 0

    def test_batch_equals_request_by_request(self, vectorised):
        batched, scalar = self._pair()
        requests = [3, 3, 41, 7, 7, 7, 0, 62, 41]
        assert batched.serve_batch(requests) == len(requests)
        for element in requests:
            scalar.serve(element)
        assert batched.network.placement() == scalar.network.placement()
        assert batched.network.ledger.records == scalar.network.ledger.records

    def test_out_of_range_element_rejects_whole_chunk(self, vectorised):
        from repro.exceptions import MappingError

        if not backend_mod.HAS_NUMPY:
            pytest.skip("up-front chunk validation is a vectorised-kernel contract")
        batched, _ = self._pair()
        before = batched.network.placement()
        with pytest.raises(MappingError):
            batched.serve_batch([1, 2, N_NODES, 3])
        # the batch bounds check validates up front: nothing was served
        assert batched.network.ledger.n_requests == 0
        assert batched.network.placement() == before

    def test_ndarray_chunk_on_scalar_loop(self):
        if not backend_mod.HAS_NUMPY:
            pytest.skip("ndarray chunks need NumPy")
        np = backend_mod.np
        batched, scalar = self._pair()
        requests = [5, 5, 17, 30]
        assert len(requests) < backend_mod.BATCH_KERNEL_MIN_CHUNK
        batched.serve_batch(np.asarray(requests))
        for element in requests:
            scalar.serve(element)
        assert batched.network.ledger.records == scalar.network.ledger.records
        assert all(type(record.element) is int for record in batched.network.ledger.records)


class TestWithoutNumPy:
    """Simulated NumPy-less environment via the backend module flag."""

    def test_as_array_transport_refused(self, monkeypatch):
        monkeypatch.setattr(backend_mod, "HAS_NUMPY", False)
        workload = build_workload(WORKLOAD_SPECS["uniform"])
        with pytest.raises(WorkloadError):
            next(workload.iter_requests(10, 4, as_array=True))

    def test_scalar_loop_serves_every_chunk_without_numpy(self, monkeypatch):
        expected = serve_outcome("move-to-front", "uniform", "scalar", 64, True)
        monkeypatch.setattr(backend_mod, "HAS_NUMPY", False)
        outcome = serve_outcome("move-to-front", "uniform", "vectorised", 64, True)
        assert outcome == expected

    def test_pure_python_zipf_sampler_is_deterministic(self, monkeypatch):
        monkeypatch.setattr(backend_mod, "HAS_NUMPY", False)
        workload = build_workload(WORKLOAD_SPECS["zipf"])
        first = workload.generate(200)
        rebuilt = build_workload(WORKLOAD_SPECS["zipf"])
        streamed = [e for chunk in rebuilt.iter_requests(200, 9) for e in chunk]
        assert first == streamed
        assert all(0 <= element < N_NODES for element in first)
        # a fresh build from the spec restores the pristine sampler state
        # (cumulative CDF + permutation)
        assert build_workload(WORKLOAD_SPECS["zipf"]).generate(200) == first


class TestLedgerBatchAccounting:
    def test_record_batch_totals(self):
        ledger = CostLedger(keep_records=False)
        ledger.record_batch(10, 25, 7)
        assert ledger.n_requests == 10
        assert ledger.total_access_cost == 25
        assert ledger.total_adjustment_cost == 7

    def test_record_batch_refuses_to_drop_records(self):
        ledger = CostLedger(keep_records=True)
        with pytest.raises(CostAccountingError):
            ledger.record_batch(3, 5, 0)

    def test_record_batch_refuses_negative_totals(self):
        ledger = CostLedger(keep_records=False)
        with pytest.raises(CostAccountingError):
            ledger.record_batch(3, -1, 0)

    def test_record_batch_columns_matches_individual_records(self):
        batched = CostLedger(keep_records=True)
        batched.record_batch_columns([4, 2, 9], [1, 0, 3], [2, 0, 5])
        scalar = CostLedger(keep_records=True)
        for element, level, swaps in [(4, 1, 2), (2, 0, 0), (9, 3, 5)]:
            scalar.record_request(element, level, swaps)
        assert batched.records == scalar.records
        assert batched.snapshot_totals() == scalar.snapshot_totals()

    def test_record_batch_columns_default_swaps_are_zero(self):
        ledger = CostLedger(keep_records=True)
        ledger.record_batch_columns([1, 2], [2, 4])
        assert ledger.total_adjustment_cost == 0
        assert [record.adjustment_cost for record in ledger.records] == [0, 0]

    def test_record_batch_columns_rejects_ragged_columns(self):
        ledger = CostLedger(keep_records=False)
        with pytest.raises(CostAccountingError):
            ledger.record_batch_columns([1, 2], [0])

    def test_record_batch_while_open_raises(self):
        ledger = CostLedger(keep_records=False)
        ledger.open_request(1, 0)
        with pytest.raises(CostAccountingError):
            ledger.record_batch(1, 1, 0)
