"""Lease dispatch under load and failure, beyond ``test_coordinator.py``.

* a healthy fleet requeues nothing, however its threads interleave, and
  gives each of as many workers as payloads one payload;
* an answer naming any lease but the outstanding one is a protocol
  violation, and the worker's payload is requeued;
* a worker drained by SIGTERM delivers the lease it is executing and the
  coordinator loses nothing;
* the ``repro_dist_in_flight`` gauge reports the lease held and returns to
  0 on every exit path;
* seeded random fault schedules over a three-worker fleet always finish
  every payload, byte-identical to serial.

Every run is compared against serial execution of fault-free payloads.
"""

from __future__ import annotations

import contextlib
import dataclasses
import logging
import os
import random
import signal
import socket
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import pytest

from repro.algorithms.registry import AlgorithmSpec
from repro.dist.coordinator import run_distributed
from repro.dist.framing import recv_frame, send_frame
from repro.dist.protocol import PROTOCOL_VERSION, payload_from_dict, payload_to_dict
from repro.dist.worker import WorkerServer
from repro.resilience import FaultSpec, ResilienceStats, RetryPolicy
from repro.resilience.store import payload_key, result_to_dict
from repro.sim.runner import SpecSource, TrialPayload, _execute_trial
from repro.telemetry.registry import MetricsRegistry, use_registry
from repro.workloads.spec import WorkloadSpec

REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")

FAST_RETRY = RetryPolicy(max_retries=2, backoff_base=0.0)

#: Fault modes the random schedules mix (daemon-level plus a trial raise).
SCHEDULE_MODES = ("worker_crash", "worker_hang", "worker_partition", "exception")

#: Seeds of the random fault schedules; together they cover every mode.
SCHEDULE_SEEDS = (1, 2, 3, 4)


def make_payloads(n: int = 2, fault=None):
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
            fault=fault,
        )
        for trial in range(n)
    ]


def serial_documents(payloads):
    clean = [dataclasses.replace(payload, fault=None) for payload in payloads]
    return [result_to_dict(_execute_trial(payload)) for payload in clean]


def documents(results):
    return [result_to_dict(result) for result in results]


def metric(registry: MetricsRegistry, name: str, **labels) -> float:
    return registry.get(name).value(**labels)


def spawn_workers(n: int) -> list:
    """Start ``n`` real ``repro worker`` daemon subprocesses on ephemeral ports.

    They import ``src`` first, then this process's own ``PYTHONPATH``, so
    they see the same packages the coordinator does (NumPy or not).
    """
    inherited = os.environ.get("PYTHONPATH")
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(filter(None, [REPO_SRC, inherited])),
    )
    processes = [
        subprocess.Popen(
            [sys.executable, "-m", "repro", "worker", "--listen", "tcp://127.0.0.1:0"],
            stdout=subprocess.PIPE,
            text=True,
            env=env,
        )
        for _ in range(n)
    ]
    for process in processes:
        line = process.stdout.readline()
        assert line.startswith("worker listening on "), line
        process.address = line.split()[-1]
    return processes


def stop_worker(process: subprocess.Popen) -> str:
    """Drain a worker subprocess (SIGTERM) and return the rest of its output."""
    if process.poll() is None:
        process.terminate()
    try:
        output, _ = process.communicate(timeout=10)
    except subprocess.TimeoutExpired:
        process.kill()
        output, _ = process.communicate()
    return output


@pytest.fixture()
def registry():
    with use_registry(MetricsRegistry()) as fresh:
        yield fresh


class ScriptedWorker:
    """A worker peer played by hand: handshake, then ``script(connection)``."""

    def __init__(self, script) -> None:
        self._listener = socket.create_server(("127.0.0.1", 0))
        host, port = self._listener.getsockname()[:2]
        self.label = f"{host}:{port}"
        self._script = script
        self.error = None
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self) -> None:
        try:
            connection, _ = self._listener.accept()
            with connection:
                connection.settimeout(10.0)
                assert recv_frame(connection)["type"] == "hello"
                send_frame(
                    connection,
                    {"type": "welcome", "protocol": PROTOCOL_VERSION, "pid": 0},
                )
                self._script(connection)
        except Exception as error:  # noqa: BLE001 - re-raised by join()
            self.error = error
        finally:
            self._listener.close()

    def join(self) -> None:
        self._thread.join(timeout=10.0)
        assert not self._thread.is_alive()
        if self.error is not None:
            raise self.error


def answer(connection: socket.socket, lease: dict) -> None:
    """Execute a lease the way a worker does and send its ``result`` frame."""
    payload = payload_from_dict(lease["payload"])
    send_frame(
        connection,
        {
            "type": "result",
            "lease_id": lease["lease_id"],
            "key": payload_key(payload),
            "result": result_to_dict(_execute_trial(payload)),
        },
    )


def read_until_closed(connection: socket.socket) -> list:
    """Every frame the coordinator still sends, until it closes the link."""
    frames = []
    while True:
        try:
            frames.append(recv_frame(connection))
        except ConnectionError:
            return frames


class TestHealthyFleet:
    def test_a_healthy_fleet_requeues_nothing(self, registry):
        workers = [WorkerServer().start(), WorkerServer().start()]
        try:
            payloads = make_payloads(20)
            stats = ResilienceStats()
            address = "tcp://" + ",".join(f"{w.host}:{w.port}" for w in workers)
            results = run_distributed(payloads, address, retry=FAST_RETRY, stats=stats)
        finally:
            for worker in workers:
                worker.stop()
        assert documents(results) == serial_documents(payloads)
        assert stats.remote_executed == 20
        assert metric(registry, "repro_dist_leases_total") == 20
        assert metric(registry, "repro_dist_requeues_total") == 0
        assert stats.lease_expiries == stats.workers_lost == 0

    def test_more_workers_than_cores_under_a_short_switch_interval(self, registry):
        """Connection threads share the queue and result slots: a lost update
        would drop or duplicate a payload."""
        workers = [WorkerServer().start() for _ in range(max(4, (os.cpu_count() or 1) + 2))]
        payloads = make_payloads(60)
        stats = ResilienceStats()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            address = "tcp://" + ",".join(f"{w.host}:{w.port}" for w in workers)
            results = run_distributed(payloads, address, retry=FAST_RETRY, stats=stats)
        finally:
            sys.setswitchinterval(interval)
            for worker in workers:
                worker.stop()
        assert documents(results) == serial_documents(payloads)
        assert stats.executed == stats.remote_executed == 60
        assert sum(worker.completed for worker in workers) == 60
        assert metric(registry, "repro_dist_leases_total") == 60
        assert metric(registry, "repro_dist_requeues_total") == 0
        assert stats.duplicate_results == 0

    def test_as_many_payloads_as_workers_run_one_per_worker(
        self, registry, long_payload
    ):
        """A long payload and a short one on two workers: neither waits
        behind the other."""
        workers = [WorkerServer().start(), WorkerServer().start()]
        payloads = [long_payload.payload] + make_payloads(1)
        try:
            address = "tcp://" + ",".join(f"{w.host}:{w.port}" for w in workers)
            results = run_distributed(payloads, address, retry=FAST_RETRY)
        finally:
            for worker in workers:
                worker.stop()
        assert documents(results) == [long_payload.document] + serial_documents(
            payloads[1:]
        )
        assert sorted(worker.completed for worker in workers) == [1, 1]
        assert metric(registry, "repro_dist_requeues_total") == 0


class TestLeaseOrder:
    def test_answering_another_lease_is_refused(self, registry, caplog):
        def wrong_lease(connection):
            lease = recv_frame(connection)
            answer(connection, dict(lease, lease_id=lease["lease_id"] + 1))
            read_until_closed(connection)

        worker = ScriptedWorker(wrong_lease)
        payloads = make_payloads(1)
        stats = ResilienceStats()
        with caplog.at_level(logging.WARNING, logger="repro.dist"):
            with pytest.warns(RuntimeWarning, match="degrading to local"):
                results = run_distributed(
                    payloads, f"tcp://{worker.label}", retry=FAST_RETRY, stats=stats
                )
        worker.join()
        assert documents(results) == serial_documents(payloads)
        assert "answered lease 2 while lease 1 is outstanding" in caplog.text
        assert metric(registry, "repro_dist_requeues_total") == 1
        assert stats.remote_executed == 0
        assert stats.workers_lost == 1


class TestLeaseFrames:
    @pytest.mark.parametrize("heartbeat", ["soon", -1.0, float("inf")])
    def test_a_bad_heartbeat_cadence_gets_an_error_frame(self, heartbeat):
        """The cadence arms the heartbeat thread's tick, so it must be a
        positive finite number; anything else ends the session, not the daemon."""
        worker = WorkerServer(registry=MetricsRegistry()).start()
        try:
            with socket.create_connection((worker.host, worker.port), timeout=10.0) as sock:
                send_frame(sock, {"type": "hello", "protocol": PROTOCOL_VERSION})
                assert recv_frame(sock)["type"] == "welcome"
                send_frame(
                    sock,
                    {
                        "type": "lease",
                        "lease_id": 1,
                        "heartbeat": heartbeat,
                        "payload": payload_to_dict(make_payloads(1)[0]),
                    },
                )
                reply = recv_frame(sock)
                assert reply["type"] == "error"
                assert "lease heartbeat" in reply["error"]
            payloads = make_payloads(2)
            results = run_distributed(payloads, worker.address, retry=FAST_RETRY)
            assert documents(results) == serial_documents(payloads)
        finally:
            worker.stop()


def _wait_for(condition, timeout: float = 10.0) -> None:
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.005)


class TestInFlightGauge:
    """The gauge counts the lease held and always ends at 0."""

    @pytest.mark.parametrize("ending", ["complete", "link_loss", "expiry", "wrong_lease"])
    def test_gauge_reports_the_lease_and_returns_to_zero(self, registry, ending):
        held = []

        def script(connection):
            lease = recv_frame(connection)
            _wait_for(
                lambda: metric(registry, "repro_dist_in_flight", worker=worker.label) == 1
            )
            held.append(metric(registry, "repro_dist_in_flight", worker=worker.label))
            if ending == "complete":
                answer(connection, lease)
                assert recv_frame(connection)["type"] == "shutdown"
            elif ending == "link_loss":
                return
            elif ending == "expiry":
                read_until_closed(connection)
            else:
                answer(connection, dict(lease, lease_id=lease["lease_id"] + 1))
                read_until_closed(connection)

        worker = ScriptedWorker(script)
        payloads = make_payloads(1)
        degrades = pytest.warns(RuntimeWarning, match="degrading to local")
        with contextlib.nullcontext() if ending == "complete" else degrades:
            results = run_distributed(
                payloads,
                f"tcp://{worker.label}?lease=0.3&heartbeat=0.05",
                retry=FAST_RETRY,
            )
        worker.join()
        assert documents(results) == serial_documents(payloads)
        assert held == [1]
        assert metric(registry, "repro_dist_in_flight", worker=worker.label) == 0
        requeued = 0 if ending == "complete" else 1
        assert metric(registry, "repro_dist_requeues_total") == requeued


class TestDrain:
    def test_sigterm_delivers_the_executing_lease_and_loses_nothing(
        self, registry, long_payload
    ):
        """The worker finishes lease 1 and drains; payload 2 runs locally."""
        payloads = [long_payload.payload] + make_payloads(1)
        expected = [long_payload.document] + serial_documents(payloads[1:])
        (worker,) = spawn_workers(1)
        outcome = {}
        stats = ResilienceStats()

        def run():
            with pytest.warns(RuntimeWarning, match="degrading to local"):
                outcome["results"] = run_distributed(
                    payloads,
                    f"{worker.address}?lease=10&heartbeat=0.05",
                    retry=FAST_RETRY,
                    stats=stats,
                )

        runner = threading.Thread(target=run)
        try:
            runner.start()
            # a heartbeat is the first frame back: lease 1 is executing
            _wait_for(lambda: metric(registry, "repro_dist_lease_renewals_total") >= 1)
            label = worker.address[len("tcp://") :]
            assert metric(registry, "repro_dist_in_flight", worker=label) == 1
            worker.send_signal(signal.SIGTERM)
            runner.join(timeout=60)
            assert not runner.is_alive()
            output, _ = worker.communicate(timeout=30)  # drains on its own
        finally:
            stop_worker(worker)
        assert worker.returncode == 0
        assert "worker drained (1 leases completed)" in output
        assert documents(outcome["results"]) == expected
        assert stats.remote_executed == 1
        assert stats.executed == 2
        assert metric(registry, "repro_dist_requeues_total") == 1
        assert stats.lease_expiries == 0


def fault_schedule(seed: int, payloads, arm_dir: str):
    """Arm a seeded random subset of ``payloads`` with random fault modes.

    Each payload independently draws "no fault" or one of
    :data:`SCHEDULE_MODES`; an armed payload fires once (``max_triggers=1``),
    so every payload can finish on a retry, a peer or the local ladder.
    """
    rng = random.Random(seed)
    scheduled = []
    for payload in payloads:
        mode = rng.choice((None,) + SCHEDULE_MODES)
        fault = None
        if mode is not None:
            fault = FaultSpec(
                mode=mode,
                trials=(payload.trial,),
                arm_dir=arm_dir,
                max_triggers=1,
                hang_seconds=0.6,
                seed=seed,
            )
        scheduled.append(dataclasses.replace(payload, fault=fault))
    return scheduled


def test_the_schedules_mix_every_fault_mode(tmp_path):
    drawn = {
        payload.fault.mode
        for seed in SCHEDULE_SEEDS
        for payload in fault_schedule(seed, make_payloads(8), str(tmp_path))
        if payload.fault is not None
    }
    assert drawn == set(SCHEDULE_MODES)


@pytest.mark.parametrize("seed", SCHEDULE_SEEDS)
def test_random_fault_schedule_finishes_every_payload(seed, tmp_path):
    payloads = fault_schedule(seed, make_payloads(8), str(tmp_path))
    workers = spawn_workers(3)
    stats = ResilienceStats()
    try:
        hosts = ",".join(w.address[len("tcp://") :] for w in workers)
        with warnings.catch_warnings():
            # whether the fleet survives the schedule varies by seed
            warnings.filterwarnings("ignore", "distributed executor lost", RuntimeWarning)
            results = run_distributed(
                payloads,
                f"tcp://{hosts}?lease=0.3&heartbeat=0.05",
                retry=FAST_RETRY,
                stats=stats,
            )
    finally:
        for worker in workers:
            stop_worker(worker)
    assert documents(results) == serial_documents(payloads)
    assert stats.executed == len(payloads)
