"""Lease-based coordinator: dispatch payloads to worker daemons, survive loss.

:class:`DistributedExecutor` is the scheduling half of ``repro.run(plan,
executor="tcp://...")``.  It owns no execution semantics of its own — every
result byte is produced by the same trial body that serial runs use — so its
entire job is *placement under failure*:

* **leases** — each pending payload is leased to exactly one worker with a
  deadline; any frame from that worker (heartbeat or result) renews it.  A
  deadline passing with no frame — worker crash, hang, network partition —
  expires the lease: the connection is dropped, the worker leaves the fleet
  and the payload is requeued for another worker.  A worker with nothing to
  lease waits on a condition that completions, requeues, failure and abort
  all notify.
* **verification** — a ``result`` frame is accepted only if the worker's
  claimed content key equals :func:`~repro.resilience.store.payload_key`
  recomputed from the coordinator's own copy of the payload, and the result
  document round-trips through the checkpoint-store codec.  Duplicate
  completions (lease races) resolve idempotently by key: the first verified
  result wins, later ones are counted and dropped.
* **retries** — a worker-reported execution error requeues the payload under
  the run's :class:`~repro.resilience.RetryPolicy` (seeded-jitter backoff);
  exhausting the budget fails the run with the worker's error.
* **degradation** — payloads still unfinished when the whole fleet is gone
  fall back through :func:`repro.sim.parallel.map_ordered`: local process
  pool first, in-process serial as the always-correct last resort.  Results
  are pure functions of payload content, so every rung of the ladder is
  byte-identical.
"""

from __future__ import annotations

import logging
import socket
import threading
import time
import warnings
from collections import deque
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.algorithms.base import RunResult
from repro.dist.protocol import (
    PROTOCOL_VERSION,
    ExecutorSpec,
    ProtocolError,
    payload_to_dict,
    recv_frame,
    send_frame,
)
from repro.exceptions import ExperimentError
from repro.resilience.retry import RetryPolicy
from repro.resilience.store import payload_key, result_from_dict
from repro.sim.parallel import map_ordered
from repro.sim.runner import TrialPayload, _execute_trial
from repro.telemetry.registry import MetricsRegistry, default_registry
from repro.telemetry.trace import Tracer, default_tracer, span_id

__all__ = ["DistributedExecutor", "run_distributed"]

logger = logging.getLogger("repro.dist")

#: Seconds allowed for the TCP connect + handshake of one worker.
_CONNECT_TIMEOUT = 5.0

#: Granularity of the coordinator's receive loop while a lease is out: small
#: enough to notice an expired deadline or an abort promptly.  A frame wakes
#: the loop at once, so the poll costs nothing on a healthy fleet.
_POLL_TIMEOUT = 0.25


def _count(stats: Optional[object], name: str, amount: int = 1) -> None:
    """Bump a duck-typed counter (``ResilienceStats`` or anything like it)."""
    if stats is not None:
        setattr(stats, name, getattr(stats, name) + amount)


class DistributedExecutor:
    """One fan-out pass over a remote worker fleet.

    The executor is single-use: :meth:`run` leases the given payloads across
    the fleet and returns ``(results, leftover)`` where ``results`` is a
    payload-ordered list with ``None`` holes for anything the fleet did not
    finish and ``leftover`` lists those unfinished indices — the caller
    (:func:`run_distributed`) degrades them to local execution.
    """

    def __init__(
        self,
        spec: ExecutorSpec,
        *,
        retry: Optional[RetryPolicy] = None,
        stats: Optional[object] = None,
        registry: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.spec = spec
        self.policy = RetryPolicy() if retry is None else retry
        self.stats = stats
        self._lock = threading.Lock()
        #: Wakes idle worker loops: notified on every completion, requeue,
        #: run failure and abort.
        self._wakeup = threading.Condition(self._lock)
        self._queue: deque = deque()
        self._attempts: Dict[int, int] = {}
        self._results: List[Optional[RunResult]] = []
        self._finished: List[bool] = []
        self._keys: List[str] = []
        self._payloads: Sequence[TrialPayload] = ()
        self._on_result: Optional[Callable[[int, RunResult], None]] = None
        self._failure: Optional[BaseException] = None
        self._abort = threading.Event()
        self._lease_counter = 0
        self._enqueued: Dict[int, float] = {}
        self.metrics_registry = registry if registry is not None else default_registry()
        self.tracer = tracer if tracer is not None else default_tracer()
        reg = self.metrics_registry
        self._m_leases = reg.counter(
            "repro_dist_leases_total", "Leases granted to workers."
        )
        self._m_renewals = reg.counter(
            "repro_dist_lease_renewals_total",
            "Lease deadline renewals (any frame received on an active lease).",
        )
        self._m_expiries = reg.counter(
            "repro_dist_lease_expiries_total",
            "Leases that expired without a frame before the deadline.",
        )
        self._m_requeues = reg.counter(
            "repro_dist_requeues_total",
            "Payloads requeued after an expiry, error retry, or lost worker.",
        )
        self._m_duplicates = reg.counter(
            "repro_dist_duplicate_drops_total",
            "Duplicate remote completions dropped idempotently.",
        )
        self._m_in_flight = reg.gauge(
            "repro_dist_in_flight",
            "Leases currently held, per worker.",
            labels=("worker",),
        )
        self._m_heartbeat_rtt = reg.histogram(
            "repro_dist_heartbeat_rtt_seconds",
            "Gap between frames on an active lease, as seen by the coordinator.",
        )
        self._m_queue_wait = reg.histogram(
            "repro_dist_queue_wait_seconds",
            "Time a payload waits in the dispatch queue before a lease grant.",
        )

    # ------------------------------------------------------------ dispatch

    def run(
        self,
        payloads: Sequence[TrialPayload],
        on_result: Optional[Callable[[int, RunResult], None]] = None,
    ) -> Tuple[List[Optional[RunResult]], List[int]]:
        """Lease every payload across the fleet; return results + leftovers."""
        self._payloads = payloads
        self._results = [None] * len(payloads)
        self._finished = [False] * len(payloads)
        self._keys = [payload_key(payload) for payload in payloads]
        self._queue = deque(range(len(payloads)))
        now = time.perf_counter()
        self._enqueued = {index: now for index in range(len(payloads))}
        self._attempts = {}
        self._on_result = on_result
        if not payloads:
            return self._results, []
        threads = [
            threading.Thread(
                target=self._worker_loop,
                args=(host, port),
                name=f"repro-dist-{host}:{port}",
                daemon=True,
            )
            for host, port in self.spec.workers
        ]
        for thread in threads:
            thread.start()
        try:
            for thread in threads:
                while thread.is_alive():
                    thread.join(timeout=0.5)
        except (KeyboardInterrupt, SystemExit):
            self._abort.set()
            with self._wakeup:
                self._wakeup.notify_all()
            for thread in threads:
                thread.join(timeout=5.0)
            raise
        if self._failure is not None:
            raise self._failure
        leftover = [index for index, ok in enumerate(self._finished) if not ok]
        return self._results, leftover

    def _take(self) -> Optional[int]:
        """Pop the next queued payload index, blocking until one is queued.

        Returns ``None`` only once the run is over: all finished, failed or
        aborted.  Until then an idle worker waits here rather than retiring,
        since a peer's lost lease may still be requeued.
        """
        with self._wakeup:
            while not self._queue:
                if (
                    self._abort.is_set()
                    or self._failure is not None
                    or all(self._finished)
                ):
                    return None
                self._wakeup.wait()
            return self._queue.popleft()

    def _all_done(self) -> bool:
        with self._lock:
            return all(self._finished)

    def _requeue(self, index: int) -> None:
        with self._lock:
            self._queue.append(index)
            self._enqueued[index] = time.perf_counter()
            self._wakeup.notify_all()
        self._m_requeues.inc()

    def _record(self, index: int, lease_id: int, message: dict) -> bool:
        """Verify and record one ``result`` frame; False if dropped.

        Acceptance requires the worker's claimed content key to equal the
        coordinator-side recomputation for that payload — a cheap end-to-end
        check that the worker rebuilt (and ran) exactly what it was leased.
        """
        if message.get("key") != self._keys[index]:
            raise ProtocolError(
                f"worker returned content key {message.get('key')!r} for "
                f"payload {index}, expected {self._keys[index]!r} — refusing "
                "the result"
            )
        try:
            result = result_from_dict(message.get("result"))
        except (KeyError, TypeError, ValueError, AttributeError) as error:
            raise ProtocolError(
                f"malformed result document for payload {index}: {error!r}"
            ) from None
        with self._lock:
            if self._finished[index]:
                _count(self.stats, "duplicate_results")
                self._m_duplicates.inc()
                logger.info(
                    "dist: duplicate completion for payload %d (lease %d) "
                    "dropped idempotently",
                    index,
                    lease_id,
                )
                return False
            self._results[index] = result
            self._finished[index] = True
            self._wakeup.notify_all()
            _count(self.stats, "executed")
            _count(self.stats, "remote_executed")
            hook = self._on_result
        if hook is not None:
            hook(index, result)
        return True

    # -------------------------------------------------------- worker loop

    def _worker_loop(self, host: str, port: int) -> None:
        """One fleet member: lease, await frames, renew or expire."""
        label = f"{host}:{port}"
        try:
            connection = socket.create_connection(
                (host, port), timeout=_CONNECT_TIMEOUT
            )
        except OSError as error:
            logger.warning("dist: worker %s unreachable (%s)", label, error)
            _count(self.stats, "workers_lost")
            return
        index: Optional[int] = None
        try:
            connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            send_frame(connection, {"type": "hello", "protocol": PROTOCOL_VERSION})
            connection.settimeout(_CONNECT_TIMEOUT)
            welcome = recv_frame(connection)
            if (
                welcome.get("type") != "welcome"
                or welcome.get("protocol") != PROTOCOL_VERSION
            ):
                raise ProtocolError(f"bad handshake from worker {label}: {welcome!r}")
            connection.settimeout(_POLL_TIMEOUT)
            while not self._abort.is_set() and self._failure is None:
                index = self._take()
                if index is None:
                    if self._all_done():
                        self._shutdown(connection)
                    return
                if not self._serve_lease(connection, label, index):
                    return  # lease expired or link broke: _serve_lease requeued
                index = None
        except (ConnectionError, socket.timeout, OSError, ProtocolError) as error:
            logger.warning("dist: worker %s lost (%s)", label, error)
            _count(self.stats, "workers_lost")
            if index is not None and not self._finished[index]:
                self._requeue(index)
        finally:
            try:
                connection.close()
            except OSError:
                pass

    def _serve_lease(self, connection: socket.socket, label: str, index: int) -> bool:
        """Lease payload ``index`` to this worker; True to keep the worker.

        Returns ``False`` when the worker must leave the fleet (expired
        lease); connection-level failures propagate to :meth:`_worker_loop`,
        which requeues and retires the worker the same way.
        """
        with self._lock:
            self._lease_counter += 1
            lease_id = self._lease_counter
            enqueued_at = self._enqueued.pop(index, None)
        granted = time.perf_counter()
        granted_wall = time.time()
        if enqueued_at is not None:
            self._m_queue_wait.observe(granted - enqueued_at)
        self._m_leases.inc()
        self._m_in_flight.set(1, worker=label)
        try:
            send_frame(
                connection,
                {
                    "type": "lease",
                    "lease_id": lease_id,
                    "heartbeat": self.spec.heartbeat_interval,
                    "payload": payload_to_dict(self._payloads[index]),
                },
            )
            deadline = time.monotonic() + self.spec.lease_timeout
            last_frame = time.perf_counter()
            while not self._abort.is_set():
                try:
                    message = recv_frame(connection)
                except socket.timeout:
                    if time.monotonic() > deadline:
                        logger.warning(
                            "dist: lease %d on worker %s expired (payload %d); "
                            "requeueing and dropping the worker",
                            lease_id,
                            label,
                            index,
                        )
                        _count(self.stats, "lease_expiries")
                        _count(self.stats, "workers_lost")
                        self._m_expiries.inc()
                        self._requeue(index)
                        return False
                    continue
                deadline = time.monotonic() + self.spec.lease_timeout
                now = time.perf_counter()
                self._m_heartbeat_rtt.observe(now - last_frame)
                last_frame = now
                self._m_renewals.inc()
                kind = message.get("type")
                if kind == "heartbeat":
                    continue
                if kind in ("result", "error") and message.get("lease_id") != lease_id:
                    raise ProtocolError(
                        f"worker {label} answered lease "
                        f"{message.get('lease_id')!r} while lease {lease_id} "
                        "is outstanding"
                    )
                if kind == "result":
                    if self._record(index, lease_id, message):
                        duration = time.perf_counter() - granted
                        self.tracer.record(
                            "dist.lease",
                            span_id("payload", self._keys[index]),
                            start=granted_wall,
                            duration=duration,
                            lease_id=lease_id,
                            worker=label,
                            payload=index,
                        )
                    return True
                if kind == "error":
                    return self._handle_error(label, index, message)
                raise ProtocolError(
                    f"unexpected message {kind!r} from worker {label}"
                )
            return False
        finally:
            self._m_in_flight.set(0, worker=label)

    def _handle_error(self, label: str, index: int, message: dict) -> bool:
        """A worker reported an execution error: retry or fail the run."""
        attempt = self._attempts.get(index, 0) + 1
        self._attempts[index] = attempt
        if attempt > self.policy.max_retries:
            failure = ExperimentError(
                f"payload {index} failed on worker {label} after "
                f"{self.policy.max_retries} retries: {message.get('error')}"
            )
            with self._lock:
                if self._failure is None:
                    self._failure = failure
                self._wakeup.notify_all()
            return True
        _count(self.stats, "retries")
        delay = self.policy.delay(attempt, token=index)
        logger.warning(
            "dist: payload %d failed on worker %s (%s); retry %d/%d in %.3fs",
            index,
            label,
            message.get("error"),
            attempt,
            self.policy.max_retries,
            delay,
        )
        if delay > 0:
            time.sleep(delay)
        self._requeue(index)
        return True

    def _shutdown(self, connection: socket.socket) -> None:
        try:
            send_frame(connection, {"type": "shutdown"})
        except OSError:  # pragma: no cover - worker already gone
            pass


def run_distributed(
    payloads: Sequence[TrialPayload],
    executor: Union[str, ExecutorSpec],
    *,
    n_jobs: Optional[int] = 1,
    worker_timeout: Optional[float] = None,
    retry: Optional[RetryPolicy] = None,
    on_result: Optional[Callable[[int, RunResult], None]] = None,
    stats: Optional[object] = None,
) -> List[RunResult]:
    """Execute payloads on a remote fleet, degrading locally as needed.

    The distributed rung of the executor ladder behind
    :func:`repro.sim.runner.execute_payloads`.  Whatever the fleet leaves
    unfinished — unreachable workers, a partition that empties the fleet
    mid-campaign — is executed through :func:`~repro.sim.parallel.
    map_ordered` (local process pool, then in-process serial), so the call
    always returns a complete, payload-ordered result list and the output is
    byte-identical to a serial run regardless of where each payload landed.
    """
    spec = executor if isinstance(executor, ExecutorSpec) else ExecutorSpec.parse(executor)
    coordinator = DistributedExecutor(spec, retry=retry, stats=stats)
    results, leftover = coordinator.run(payloads, on_result)
    if leftover:
        warnings.warn(
            f"distributed executor lost its worker fleet with {len(leftover)} "
            f"payloads unfinished; degrading to local execution "
            f"(n_jobs={n_jobs})",
            RuntimeWarning,
            stacklevel=2,
        )
        logger.warning(
            "dist: fleet exhausted; degrading %d payloads to local execution",
            len(leftover),
        )
        if stats is not None:
            stats.degraded_remote = True

        def local_hook(position: int, result: RunResult) -> None:
            if on_result is not None:
                on_result(leftover[position], result)

        local = map_ordered(
            _execute_trial,
            [payloads[index] for index in leftover],
            n_jobs,
            worker_timeout=worker_timeout,
            retry=retry,
            on_result=local_hook if on_result is not None else None,
            stats=stats,
        )
        for position, index in enumerate(leftover):
            results[index] = local[position]
    return results  # type: ignore[return-value]
