"""Which batch kernel ``serve_batch`` runs, on each side of the threshold.

``serve_batch`` hands a chunk to a vectorised kernel only when NumPy is
importable, the marking discipline is off, the algorithm has a port and the
chunk holds at least :data:`repro.core.backend.BATCH_KERNEL_MIN_CHUNK`
requests; everything else runs the scalar fast loop.  The equivalence suites
prove both sides give identical results; these tests pin the choice itself,
so a refactor cannot silently move the live path (batches of 1-16) onto the
kernels that measure slower there, or the long batch chunks off them.
"""

from __future__ import annotations

import pytest

from repro.algorithms.base import OnlineTreeAlgorithm
from repro.algorithms.registry import available_algorithms, make_algorithm
from repro.core import backend as backend_mod
from repro.serve.engine import ServeEngine

N_NODES = 63

#: The vectorised port of every registered algorithm (None = scalar only).
EXPECTED_PORTS = {
    "rotor-push": "_serve_batch_root_promote",
    "random-push": "_serve_batch_root_promote",
    "move-to-front": "_serve_batch_root_promote",
    "static-oblivious": "_serve_batch_static",
    "static-opt": "_serve_batch_static",
    "move-half": None,
    "max-push": None,
}

#: Batch sizes the live serve path sends.
LIVE_BATCH_SIZES = (1, 4, 16)


@pytest.fixture
def calls(monkeypatch):
    """Record every kernel and scalar-loop call made while the test runs."""
    seen = []

    def spy(name):
        original = getattr(OnlineTreeAlgorithm, name)

        def wrapper(self, *args):
            seen.append(name)
            return original(self, *args)

        monkeypatch.setattr(OnlineTreeAlgorithm, name, wrapper)

    for name in ("_serve_batch_static", "_serve_batch_root_promote", "_serve_fast"):
        spy(name)
    return seen


def build(name, **kwargs):
    instance = make_algorithm(name, n_nodes=N_NODES, placement_seed=1, seed=2, **kwargs)
    if instance.requires_preparation:
        instance.prepare(list(range(N_NODES)))
    return instance


def chunk_of(length):
    return [(7 * index + 3) % N_NODES for index in range(length)]


def test_every_registered_algorithm_has_a_pinned_port():
    assert sorted(EXPECTED_PORTS) == sorted(available_algorithms())


@pytest.mark.parametrize("name", sorted(EXPECTED_PORTS))
def test_port_per_algorithm(name):
    kernel = build(name)._batch_kernel()
    expected = EXPECTED_PORTS[name]
    assert (kernel.__name__ if kernel is not None else None) == expected


def test_threshold_sits_above_live_batch_sizes():
    assert max(LIVE_BATCH_SIZES) < backend_mod.BATCH_KERNEL_MIN_CHUNK


@pytest.mark.skipif(not backend_mod.HAS_NUMPY, reason="kernels need NumPy")
@pytest.mark.parametrize("name", sorted(EXPECTED_PORTS))
def test_chunk_at_threshold_runs_the_kernel(name, calls):
    threshold = backend_mod.BATCH_KERNEL_MIN_CHUNK
    build(name, keep_records=False).serve_batch(chunk_of(threshold))
    port = EXPECTED_PORTS[name]
    if port is None:
        assert calls.count("_serve_fast") >= 1
        assert "_serve_batch_static" not in calls
        assert "_serve_batch_root_promote" not in calls
    else:
        assert calls[0] == port
        assert calls.count(port) == 1
        assert "_serve_fast" not in calls


@pytest.mark.parametrize("name", sorted(EXPECTED_PORTS))
def test_chunk_below_threshold_runs_the_scalar_loop(name, calls):
    length = backend_mod.BATCH_KERNEL_MIN_CHUNK - 1
    build(name, keep_records=False).serve_batch(chunk_of(length))
    assert calls == ["_serve_fast"] * length


@pytest.mark.parametrize("name", ["rotor-push", "static-oblivious"])
def test_without_numpy_every_chunk_runs_the_scalar_loop(name, calls, monkeypatch):
    monkeypatch.setattr(backend_mod, "HAS_NUMPY", False)
    length = backend_mod.BATCH_KERNEL_MIN_CHUNK * 2
    build(name, keep_records=False).serve_batch(chunk_of(length))
    assert calls == ["_serve_fast"] * length


def test_marking_discipline_keeps_the_checked_path(calls):
    instance = build("rotor-push", enforce_marking=True)
    length = backend_mod.BATCH_KERNEL_MIN_CHUNK * 2
    assert instance.serve_batch(chunk_of(length)) == length
    assert calls == []  # serve() -> access/_adjust/finish, no fast path
    assert instance.network.ledger.n_requests == length


@pytest.mark.parametrize("size", LIVE_BATCH_SIZES)
def test_live_engine_batches_run_the_scalar_loop(size, calls):
    engine = ServeEngine(n_nodes=N_NODES, algorithm="rotor-push")
    engine.bind("live")
    engine.submit("live", chunk_of(size))
    assert calls == ["_serve_fast"] * size
