"""The worker daemon of the distributed executor.

``repro worker --listen tcp://0.0.0.0:PORT`` runs one long-lived daemon that
serves one coordinator session at a time: it answers the protocol handshake,
executes leased payloads through the exact same
:func:`repro.sim.runner._execute_trial` body the process-pool workers run,
and keeps the lease alive by heartbeating while it computes.  Leases are
executed one at a time, in the order they arrive, on the connection thread
itself.  One heartbeat thread per session sends the heartbeats, and only
while a lease is executing.  Every frame goes out under one send lock, so a
heartbeat never interleaves with a result.

Results are self-verifying: each ``result`` frame carries the payload's
content key (:func:`repro.resilience.store.payload_key`, recomputed here
from the payload the worker actually rebuilt) alongside the
:func:`~repro.resilience.store.result_to_dict` document.  The coordinator
recomputes the key from *its* copy of the payload before accepting, so a
protocol mixup — a result attached to the wrong lease, a worker rebuilding
a different payload than it was sent — is detected, never silently merged.

Worker-level fault injection (see :mod:`repro.resilience.faults`): payloads
may carry a :class:`~repro.resilience.FaultSpec` whose mode targets the
*daemon* rather than the trial — ``worker_crash`` kills the whole process,
``worker_hang`` stops the heartbeat past any lease timeout, and
``worker_partition`` drops the connection abruptly.  Trigger budgets live in
arm files exactly like the pool-level modes, so "kill one worker, then let
the retried payload complete" is deterministic across the daemon deaths it
causes.
"""

from __future__ import annotations

import contextlib
import logging
import math
import os
import signal
import socket
import threading
import time
from typing import Optional

from repro.dist.framing import parse_listen_address  # noqa: F401 - re-export
from repro.dist.protocol import (
    PROTOCOL_VERSION,
    DEFAULT_HEARTBEAT_INTERVAL,
    ProtocolError,
    payload_from_dict,
    recv_frame,
    send_frame,
)
from repro.resilience.faults import WORKER_FAULT_MODES
from repro.resilience.store import payload_key, result_to_dict
from repro.sim.runner import _execute_trial, _shared_chunks_cache
from repro.telemetry.export import metrics_frame, start_metrics_server
from repro.telemetry.registry import MetricsRegistry, default_registry
from repro.telemetry.trace import Tracer, default_tracer, span_id

__all__ = ["WorkerServer", "parse_listen_address", "run_worker"]

logger = logging.getLogger("repro.dist")

#: How often the accept loop wakes up to check the stop flag (seconds).
_ACCEPT_POLL = 0.2


class _SessionClosed(Exception):
    """Internal: the current coordinator session must end (worker survives)."""


class _Session:
    """One coordinator connection: serialised writes and its heartbeat thread.

    :meth:`send` is the only way a frame leaves, under one lock.  The
    heartbeat thread ticks once per heartbeat interval; on a tick that finds
    a lease executing (:meth:`executing`) it sends that lease's
    ``heartbeat``.  Marking a lease is two attribute writes, so short leases
    cost the thread nothing.  The tick re-checks the lease under the send
    lock, so no heartbeat for a lease follows that lease's result.
    :meth:`close` stops and joins the thread.
    """

    def __init__(
        self, connection: socket.socket, interval: float, on_heartbeat, name: str
    ) -> None:
        self.connection = connection
        self._interval = interval
        self._on_heartbeat = on_heartbeat
        self._send_lock = threading.Lock()
        self._tick = threading.Condition()
        self._heartbeat: Optional[dict] = None
        self._closed = False
        self._thread = threading.Thread(
            target=self._heartbeat_loop, name=name, daemon=True
        )
        self._thread.start()

    def send(self, message: dict) -> None:
        with self._send_lock:
            send_frame(self.connection, message)

    @contextlib.contextmanager
    def executing(self, lease_id: object, interval: float):
        """Heartbeat for ``lease_id`` at least every ``interval`` seconds inside the block."""
        if interval != self._interval:
            with self._tick:
                self._interval = interval
                self._tick.notify()  # re-arm the tick at the new cadence
        self._heartbeat = {"type": "heartbeat", "lease_id": lease_id}
        try:
            yield
        finally:
            self._heartbeat = None

    def close(self) -> None:
        with self._tick:
            self._closed = True
            self._tick.notify()
        self._thread.join()

    def _heartbeat_loop(self) -> None:
        with self._tick:
            while not self._closed:
                if self._tick.wait(self._interval):
                    continue  # woken early: closed, or a new cadence
                frame = self._heartbeat
                if frame is None:
                    continue
                with self._send_lock:
                    if self._heartbeat is not frame:
                        continue  # that lease ended while we waited for the lock
                    try:
                        send_frame(self.connection, frame)
                    except OSError:
                        return  # the connection thread finds the broken link too
                self._on_heartbeat()


class WorkerServer:
    """A worker daemon: listens for a coordinator and serves leases.

    Usable as a long-running process (:func:`run_worker`, the ``repro
    worker`` CLI) or embedded in-process for tests (``start()``/``stop()``
    run the accept loop on a background thread).  ``port=0`` binds an
    ephemeral port; :attr:`address` reports the bound endpoint either way.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        heartbeat_interval: float = DEFAULT_HEARTBEAT_INTERVAL,
        registry: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        if heartbeat_interval <= 0:
            raise ProtocolError(
                f"heartbeat interval must be positive, got {heartbeat_interval}"
            )
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(8)
        self._listener.settimeout(_ACCEPT_POLL)
        self.host, self.port = self._listener.getsockname()[:2]
        #: Heartbeat cadence used when a lease frame doesn't carry its own
        #: (``repro worker --heartbeat``); coordinator-specified cadence wins.
        self.heartbeat_interval = float(heartbeat_interval)
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        #: Sessions served and payloads completed (introspected by tests).
        self.sessions = 0
        self.completed = 0
        self.metrics_registry = registry if registry is not None else default_registry()
        self.tracer = tracer if tracer is not None else default_tracer()
        reg = self.metrics_registry
        self._m_sessions = reg.counter(
            "repro_worker_sessions_total", "Coordinator sessions accepted."
        )
        self._m_leases = reg.counter(
            "repro_worker_leases_total", "Leases received for execution."
        )
        self._m_results = reg.counter(
            "repro_worker_results_total", "Lease results delivered."
        )
        self._m_errors = reg.counter(
            "repro_worker_errors_total", "Leases that raised during execution."
        )
        self._m_heartbeats = reg.counter(
            "repro_worker_heartbeats_total", "Heartbeat frames sent mid-lease."
        )
        self._m_lease_seconds = reg.histogram(
            "repro_worker_lease_seconds",
            "Wall time from lease receipt to result (or error) sent.",
        )

    @property
    def address(self) -> str:
        """The bound endpoint as an executor-address component."""
        return f"tcp://{self.host}:{self.port}"

    # ----------------------------------------------------------- lifecycle

    def serve_forever(self) -> None:
        """Accept coordinator sessions until :meth:`stop` is called."""
        try:
            while not self._stop.is_set():
                try:
                    connection, peer = self._listener.accept()
                except socket.timeout:
                    continue
                except OSError:
                    break  # listener closed under us (stop())
                self.sessions += 1
                self._m_sessions.inc()
                try:
                    self._serve_session(connection, peer)
                except _SessionClosed:
                    pass
                except (ConnectionError, socket.timeout, OSError) as error:
                    logger.info("worker %s: session ended (%s)", self.address, error)
                except ProtocolError as error:
                    logger.warning(
                        "worker %s: protocol violation (%s)", self.address, error
                    )
                    try:
                        send_frame(connection, {"type": "error", "error": str(error)})
                    except OSError:
                        pass
                finally:
                    try:
                        connection.close()
                    except OSError:
                        pass
                    _shared_chunks_cache.clear()
        finally:
            try:
                self._listener.close()
            except OSError:
                pass

    def start(self) -> "WorkerServer":
        """Run the accept loop on a daemon thread (test embedding)."""
        self._thread = threading.Thread(
            target=self.serve_forever, name=f"repro-worker-{self.port}", daemon=True
        )
        self._thread.start()
        return self

    def request_stop(self) -> None:
        """Ask the daemon to drain: finish the executing lease, then exit.

        Safe to call from a signal handler: it only flips the stop flag and
        closes the listener.  The flag is observed between frames (the
        ``_recv`` poll) and between sessions (the accept loop) — never
        inside :meth:`_serve_lease` — so a payload that is mid-execution
        keeps heartbeating to completion and its ``result`` frame still
        reaches the coordinator before the session ends.  A lease still
        unread in the socket buffer is never started; the coordinator
        requeues it when the session closes.
        """
        self._stop.set()
        try:
            self._listener.close()
        except OSError:
            pass

    def stop(self) -> None:
        """Stop accepting and close the listener (idempotent)."""
        self.request_stop()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    # -------------------------------------------------------- one session

    def _serve_session(self, connection: socket.socket, peer) -> None:
        """Serve one coordinator until shutdown, disconnect or stop()."""
        connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        connection.settimeout(_ACCEPT_POLL)
        hello = self._recv(connection)
        if hello.get("type") != "hello" or hello.get("protocol") != PROTOCOL_VERSION:
            # serve_forever answers every ProtocolError with an error frame
            raise ProtocolError(f"protocol mismatch from {peer}: {hello!r}")
        send_frame(
            connection,
            {"type": "welcome", "protocol": PROTOCOL_VERSION, "pid": os.getpid()},
        )
        logger.info("worker %s: coordinator %s connected", self.address, peer)
        session = _Session(
            connection,
            self.heartbeat_interval,
            self._m_heartbeats.inc,
            f"repro-worker-heartbeat-{self.port}",
        )
        try:
            while True:
                message = self._recv(connection)
                kind = message.get("type")
                if kind == "shutdown":
                    raise _SessionClosed
                if kind == "metrics":
                    session.send(
                        metrics_frame(
                            self.metrics_registry,
                            self.tracer,
                            include_trace=bool(message.get("trace")),
                        )
                    )
                    continue
                if kind != "lease":
                    raise ProtocolError(f"unexpected message {kind!r} from {peer}")
                self._serve_lease(session, message)
        finally:
            session.close()

    def _recv(self, connection: socket.socket):
        """Receive one frame, waking periodically to honour stop()."""
        while True:
            if self._stop.is_set():
                raise _SessionClosed
            try:
                return recv_frame(connection)
            except socket.timeout:
                continue

    def _serve_lease(self, session: _Session, message: dict) -> None:
        """Execute one leased payload, heartbeating until the result is out."""
        lease_id = message.get("lease_id")
        payload = payload_from_dict(message.get("payload"))
        try:
            heartbeat = float(message.get("heartbeat") or self.heartbeat_interval)
        except (TypeError, ValueError):
            raise ProtocolError(
                f"lease heartbeat is not a number: {message.get('heartbeat')!r}"
            ) from None
        if not 0 < heartbeat < math.inf:
            raise ProtocolError(
                f"lease heartbeat must be a positive number, got {heartbeat!r}"
            )
        self._maybe_inject_worker_fault(session.connection, payload)
        self._m_leases.inc()
        started = time.perf_counter()
        started_wall = time.time()
        key = payload_key(payload)
        try:
            with session.executing(lease_id, heartbeat):
                result = _execute_trial(payload)
        except Exception as error:  # noqa: BLE001 - reported to the coordinator
            self._m_errors.inc()
            self._m_lease_seconds.observe(time.perf_counter() - started)
            session.send({"type": "error", "lease_id": lease_id, "error": repr(error)})
            return
        session.send(
            {
                "type": "result",
                "lease_id": lease_id,
                "key": key,
                "result": result_to_dict(result),
            },
        )
        self.completed += 1
        self._m_results.inc()
        duration = time.perf_counter() - started
        self._m_lease_seconds.observe(duration)
        self.tracer.record(
            "worker.lease",
            span_id("payload", key),
            start=started_wall,
            duration=duration,
            lease_id=lease_id,
            trial=payload.trial,
            algorithm=payload.algorithm_name,
        )

    def _maybe_inject_worker_fault(
        self, connection: socket.socket, payload
    ) -> None:
        """Fire a worker-level fault if the payload arms one with budget left.

        These modes target the daemon itself, so they are handled here — on
        the connection thread, before any execution starts — rather than in
        :func:`repro.resilience.faults.maybe_inject` (which runs them as
        no-ops, keeping local pool and serial re-execution clean).
        """
        fault = payload.fault
        if (
            fault is None
            or fault.mode not in WORKER_FAULT_MODES
            or payload.trial not in fault.trials
            or not fault._claim_trigger(payload.trial, payload.algorithm_name)
        ):
            return
        logger.warning(
            "worker %s: injected fault %r firing (trial %d, %s)",
            self.address,
            fault.mode,
            payload.trial,
            payload.algorithm_name,
        )
        if fault.mode == "worker_crash":
            os._exit(21)
        if fault.mode == "worker_hang":
            # sleep on the connection thread: heartbeats stop, the lease
            # expires coordinator-side, the payload is requeued elsewhere
            time.sleep(fault.hang_seconds)
            raise _SessionClosed
        # worker_partition: drop the connection abruptly (simulated netsplit)
        # but keep the daemon alive for a later session
        try:
            connection.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        raise _SessionClosed


def run_worker(
    listen: str,
    metrics: Optional[str] = None,
    heartbeat: float = DEFAULT_HEARTBEAT_INTERVAL,
) -> int:
    """Run one worker daemon until interrupted (the ``repro worker`` body).

    Prints the bound endpoint (``worker listening on tcp://host:port``) once
    the listener is up, so launch scripts can wait for readiness and recover
    the port when ``:0`` asked for an ephemeral one.  ``metrics``
    (``tcp://HOST:PORT``) mounts the Prometheus/JSON metrics endpoint;
    ``heartbeat`` sets the default cadence for leases that don't carry one.

    SIGTERM and SIGINT both drain rather than kill: the executing lease (if
    any) finishes and its result is delivered, then the daemon exits 0
    printing ``worker drained``.  A lease still unread in the socket buffer
    is never started; the coordinator requeues it when the session closes.
    Coordinators therefore never see a lease expire just because the fleet
    was being rotated.
    """
    host, port = parse_listen_address(listen)
    server = WorkerServer(host, port, heartbeat_interval=heartbeat)
    endpoint = start_metrics_server(
        metrics, server.metrics_registry, server.tracer
    )
    if endpoint is not None:
        print(f"metrics listening on {endpoint.url}", flush=True)

    def _drain(signum: int, _frame: object) -> None:
        print(f"worker draining on {signal.Signals(signum).name}", flush=True)
        server.request_stop()

    # handlers go in before the readiness banner: a supervisor that signals
    # the moment it sees the banner must always hit the drain path
    previous = {
        sig: signal.signal(sig, _drain) for sig in (signal.SIGTERM, signal.SIGINT)
    }
    print(f"worker listening on {server.address}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)
        server.stop()
        if endpoint is not None:
            endpoint.stop()
    print(f"worker drained ({server.completed} leases completed)", flush=True)
    return 0
