"""Process-pool fan-out for trial execution.

The paper-scale configurations (65,535 nodes, 10^6 requests, 10 trials, six
algorithms) multiply into hours of strictly serial CPU time.  Every (trial,
algorithm) work item is, however, completely independent once its seeds are
fixed: the workload is a spec and the placement and algorithm seeds are pure
functions of the trial index.  This module provides the one primitive the
payload fan-out (:func:`repro.sim.runner.execute_payloads`) needs — "map
this worker over these payloads,
possibly on several processes, preserving order" — so that parallel runs are
bit-for-bit identical to serial ones by construction: the same payloads are
built in the same order, and results are reassembled by position, never by
completion time.

``n_jobs`` convention (shared by :class:`repro.plans.RunConfig`, the
experiment builders and the CLI's ``--jobs``):

* ``1`` (default) — run serially in the current process, no pool involved;
* ``k > 1`` — use up to ``k`` worker processes;
* any negative value — use one worker per available CPU.
"""

from __future__ import annotations

import atexit
import logging
import os
import threading
import time
import warnings
from concurrent.futures import ProcessPoolExecutor, wait as _futures_wait
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Dict, List, Optional, Sequence, TypeVar

from repro.exceptions import ExperimentError
from repro.resilience.retry import RetryPolicy
from repro.telemetry.registry import default_registry
from repro.workloads.spec import registry_version

__all__ = [
    "check_n_jobs",
    "resolve_n_jobs",
    "map_ordered",
    "shutdown_persistent_pool",
]

#: Module-level alias so tests can monkeypatch the wait primitive (e.g. to
#: simulate a ``KeyboardInterrupt`` arriving mid-fan-out).
_wait = _futures_wait

#: Resilience events (retries, pool rebuilds, degradation) are logged here
#: with their payload indices and backoff delays, complementing the
#: structured counters in :class:`repro.resilience.ResilienceStats` that
#: ``last_run_stats()`` exposes.
logger = logging.getLogger("repro.resilience")

_PayloadT = TypeVar("_PayloadT")
_ResultT = TypeVar("_ResultT")


def resolve_n_jobs(n_jobs: Optional[int]) -> int:
    """Normalise an ``n_jobs`` request to a concrete worker count.

    ``None`` and ``1`` mean serial execution; negative values mean one worker
    per available CPU; ``0`` is rejected as ambiguous.
    """
    if n_jobs is None:
        return 1
    if n_jobs < 0:
        return max(1, os.cpu_count() or 1)
    if n_jobs == 0:
        raise ExperimentError("n_jobs must be positive or negative, not 0")
    return n_jobs


def check_n_jobs(n_jobs: Optional[int]) -> Optional[int]:
    """Validate an ``n_jobs`` value without resolving it to a worker count.

    The declarative layer (:class:`repro.plans.RunConfig`) validates plans at
    construction time, possibly on a different machine than the one that will
    run them — so only the convention is checked (``0`` is ambiguous and
    rejected), never the CPU count.
    """
    if n_jobs is not None and n_jobs == 0:
        raise ExperimentError("n_jobs must be positive or negative, not 0")
    return n_jobs


# One process pool, reused across map_ordered calls (and therefore across
# sweep points and whole experiments).  Spinning a pool up costs fork+import
# per worker; at paper scale a sweep used to pay that once per point.  The
# pool is keyed by its worker count: asking for a different n_jobs replaces
# it, asking for the same reuses it.  Workers are spawned lazily by the
# executor, so an oversized pool serving a tiny payload list costs nothing.
# All access goes through _pool_lock; map_ordered holds it for the whole
# parallel section, so concurrent threaded callers serialise their fan-outs
# rather than shutting each other's executor down mid-map.
_pool: Optional[ProcessPoolExecutor] = None
_pool_workers: int = 0
_pool_registry_version: int = -1
_pool_lock = threading.Lock()


def _acquire_pool_locked(max_workers: int) -> ProcessPoolExecutor:
    """Return the shared executor (caller must hold ``_pool_lock``).

    The pool is also keyed on the workload-registry version: forked workers
    snapshot the registry at pool creation, so a kind registered after that
    would be unknown to them.  A version bump forces a rebuild, re-forking
    the current parent state.
    """
    global _pool, _pool_workers, _pool_registry_version
    if max_workers <= 0:
        raise ExperimentError(f"max_workers must be positive, got {max_workers}")
    version = registry_version()
    if _pool is not None and (
        _pool_workers != max_workers or _pool_registry_version != version
    ):
        _shutdown_pool_locked()
    if _pool is None:
        _pool = ProcessPoolExecutor(max_workers=max_workers)
        _pool_workers = max_workers
        _pool_registry_version = version
    return _pool


def _shutdown_pool_locked() -> None:
    global _pool, _pool_workers, _pool_registry_version
    if _pool is not None:
        _pool.shutdown(wait=True)
        _pool = None
        _pool_workers = 0
        _pool_registry_version = -1


def _terminate_pool_locked() -> None:
    """Tear the pool down without waiting — for broken, hung or interrupted pools.

    A graceful ``shutdown(wait=True)`` would block forever on a hung worker,
    so this path cancels queued futures, terminates the worker processes
    outright and resets the pool slot; the next :func:`_acquire_pool_locked`
    builds a fresh pool.
    """
    global _pool, _pool_workers, _pool_registry_version
    pool = _pool
    _pool = None
    _pool_workers = 0
    _pool_registry_version = -1
    if pool is None:
        return
    processes = list(getattr(pool, "_processes", None) or {})
    process_map = getattr(pool, "_processes", None) or {}
    workers = [process_map[pid] for pid in processes if pid in process_map]
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except Exception:  # pragma: no cover - shutdown of a broken pool
        pass
    for process in workers:
        try:
            process.terminate()
        except Exception:  # pragma: no cover - already dead
            pass
    for process in workers:
        try:
            process.join(timeout=5.0)
        except Exception:  # pragma: no cover - already reaped
            pass


def shutdown_persistent_pool() -> None:
    """Shut the shared executor down (registered at interpreter exit)."""
    with _pool_lock:
        _shutdown_pool_locked()


atexit.register(shutdown_persistent_pool)


def _count(stats: Optional[object], name: str, amount: int = 1) -> None:
    """Bump a duck-typed counter (``ResilienceStats`` or anything like it)."""
    if stats is not None:
        setattr(stats, name, getattr(stats, name) + amount)


def _sleep_backoff(seconds: float) -> None:
    if seconds > 0:
        time.sleep(seconds)


def _run_one_with_retry(
    worker: Callable[[_PayloadT], _ResultT],
    payload: _PayloadT,
    policy: RetryPolicy,
    stats: Optional[object],
    token: int = 0,
) -> _ResultT:
    """Serial execution of one payload under the retry policy."""
    attempt = 0
    while True:
        try:
            return worker(payload)
        except Exception as error:
            attempt += 1
            if attempt > policy.max_retries:
                raise
            _count(stats, "retries")
            delay = policy.delay(attempt, token=token)
            logger.warning(
                "payload %d failed in-process (%r); retry %d/%d in %.3fs",
                token,
                error,
                attempt,
                policy.max_retries,
                delay,
            )
            _sleep_backoff(delay)


def _map_serial(
    worker: Callable[[_PayloadT], _ResultT],
    payloads: Sequence[_PayloadT],
    indices: Sequence[int],
    results: List[Optional[_ResultT]],
    finished: List[bool],
    policy: RetryPolicy,
    on_result: Optional[Callable[[int, _ResultT], None]],
    stats: Optional[object],
) -> None:
    """Run the given payload indices in order, in this process."""
    for index in indices:
        result = _run_one_with_retry(worker, payloads[index], policy, stats, index)
        results[index] = result
        finished[index] = True
        _count(stats, "executed")
        if on_result is not None:
            on_result(index, result)


def _drain_futures(
    pool: ProcessPoolExecutor,
    worker: Callable[[_PayloadT], _ResultT],
    payloads: Sequence[_PayloadT],
    futures: Dict[object, int],
    results: List[Optional[_ResultT]],
    finished: List[bool],
    attempts: List[int],
    policy: RetryPolicy,
    worker_timeout: Optional[float],
    on_result: Optional[Callable[[int, _ResultT], None]],
    stats: Optional[object],
) -> bool:
    """Collect futures as they complete; return True if the pool must go.

    Ordinary worker exceptions are retried in place (resubmitted to the same
    healthy pool, with backoff) until the payload's retry budget runs out —
    then the exception propagates.  A broken pool or a stall (no payload
    completing within ``worker_timeout``) returns ``True``: the caller
    rebuilds the pool and resubmits whatever is still unfinished.
    """
    pending = set(futures)
    while pending:
        done, pending = _wait(pending, timeout=worker_timeout)
        if not done:
            # No payload finished an entire timeout window: at least one
            # worker is hung (or every remaining payload legitimately takes
            # longer — set a generous timeout).  The pool must be killed;
            # ProcessPoolExecutor cannot abort an individual task.
            return True
        for future in done:
            index = futures.pop(future)
            try:
                result = future.result()
            except BrokenProcessPool:
                # A worker died; every sibling future is doomed too.  Keep
                # whatever already finished and let the caller rebuild.
                return True
            except Exception as error:
                attempts[index] += 1
                if attempts[index] > policy.max_retries:
                    for other in pending:
                        other.cancel()
                    raise
                _count(stats, "retries")
                delay = policy.delay(attempts[index], token=index)
                logger.warning(
                    "payload %d failed on the pool (%r); retry %d/%d in %.3fs",
                    index,
                    error,
                    attempts[index],
                    policy.max_retries,
                    delay,
                )
                _sleep_backoff(delay)
                try:
                    fresh = pool.submit(worker, payloads[index])
                except BrokenProcessPool:
                    return True
                futures[fresh] = index
                pending.add(fresh)
            else:
                results[index] = result
                finished[index] = True
                _count(stats, "executed")
                if on_result is not None:
                    on_result(index, result)
    return False


def _map_parallel_locked(
    worker: Callable[[_PayloadT], _ResultT],
    payloads: Sequence[_PayloadT],
    jobs: int,
    worker_timeout: Optional[float],
    policy: RetryPolicy,
    on_result: Optional[Callable[[int, _ResultT], None]],
    stats: Optional[object],
) -> List[_ResultT]:
    results: List[Optional[_ResultT]] = [None] * len(payloads)
    finished = [False] * len(payloads)
    attempts = [0] * len(payloads)
    rebuilds = 0
    while True:
        remaining = [index for index, ok in enumerate(finished) if not ok]
        if not remaining:
            return results  # type: ignore[return-value]
        pool = _acquire_pool_locked(jobs)
        try:
            futures = {
                pool.submit(worker, payloads[index]): index for index in remaining
            }
        except BrokenProcessPool:  # pragma: no cover - pool died between maps
            broken = True
        else:
            broken = _drain_futures(
                pool,
                worker,
                payloads,
                futures,
                results,
                finished,
                attempts,
                policy,
                worker_timeout,
                on_result,
                stats,
            )
        if not broken:
            continue  # loop re-checks `finished` and returns
        rebuilds += 1
        _count(stats, "pool_rebuilds")
        _terminate_pool_locked()
        logger.warning(
            "process pool broke or stalled; rebuild %d/%d (%d payloads "
            "unfinished)",
            rebuilds,
            policy.max_retries,
            sum(1 for ok in finished if not ok),
        )
        if rebuilds > policy.max_retries:
            # The pool keeps dying (poisoned payload? resource exhaustion?).
            # Results are pure functions of their payloads, so finishing the
            # campaign in-process is observationally identical — just slower
            # and unisolated.  Warn and degrade rather than fail.
            warnings.warn(
                f"process pool broke {rebuilds} times (retry budget "
                f"{policy.max_retries}); degrading to in-process serial "
                f"execution for the {sum(1 for ok in finished if not ok)} "
                "remaining payloads",
                RuntimeWarning,
                stacklevel=3,
            )
            logger.error(
                "degrading to in-process serial execution (%d payloads left)",
                sum(1 for ok in finished if not ok),
            )
            if stats is not None:
                stats.degraded = True
            _map_serial(
                worker,
                payloads,
                [index for index, ok in enumerate(finished) if not ok],
                results,
                finished,
                policy,
                on_result,
                stats,
            )
            return results  # type: ignore[return-value]
        _sleep_backoff(policy.delay(rebuilds))


def map_ordered(
    worker: Callable[[_PayloadT], _ResultT],
    payloads: Sequence[_PayloadT],
    n_jobs: Optional[int] = 1,
    *,
    worker_timeout: Optional[float] = None,
    retry: Optional[RetryPolicy] = None,
    on_result: Optional[Callable[[int, _ResultT], None]] = None,
    stats: Optional[object] = None,
) -> List[_ResultT]:
    """Apply ``worker`` to every payload, preserving payload order.

    With ``n_jobs`` resolving to 1 (or at most one payload) this is a plain
    serial loop (plus the retry policy).  Otherwise every payload is
    submitted as its own future on the persistent
    :class:`concurrent.futures.ProcessPoolExecutor` (created on first use,
    reused across calls); ``worker`` must be a module-level function and the
    payloads picklable.  The result list is ordered by payload position
    regardless of completion order, which is what makes parallel trial
    execution deterministic.

    Fault isolation (the per-future submission is what pays for it):

    * an ordinary worker exception retries only *that* payload, on the same
      healthy pool, under ``retry`` (capped exponential backoff; default
      :class:`repro.resilience.RetryPolicy`) — its chunk-mates are
      untouched;
    * a dead worker (``BrokenProcessPool``) or a stall — no payload
      completing within ``worker_timeout`` seconds — tears the pool down
      (hung workers are terminated), rebuilds it, and resubmits only the
      unfinished payloads; completed results are never discarded;
    * after ``retry.max_retries`` pool rebuilds the campaign *degrades* to
      in-process serial execution with a :class:`RuntimeWarning` instead of
      failing — results are pure functions of their payloads, so the output
      is bit-identical either way;
    * ``KeyboardInterrupt`` cancels queued futures, terminates the pool and
      re-raises, so an interrupted campaign never leaks orphaned workers.

    ``on_result(index, result)`` fires as each payload completes (completion
    order, not payload order) — the checkpoint-store hook that makes
    campaigns crash-safe.  ``stats`` is a duck-typed counter object (see
    :class:`repro.resilience.ResilienceStats`).
    """
    policy = RetryPolicy() if retry is None else retry
    jobs = resolve_n_jobs(n_jobs)
    started = time.perf_counter()
    try:
        if jobs == 1 or len(payloads) <= 1:
            results: List[Optional[_ResultT]] = [None] * len(payloads)
            finished = [False] * len(payloads)
            _map_serial(
                worker,
                payloads,
                range(len(payloads)),
                results,
                finished,
                policy,
                on_result,
                stats,
            )
            return results  # type: ignore[return-value]
        with _pool_lock:
            try:
                return _map_parallel_locked(
                    worker, payloads, jobs, worker_timeout, policy, on_result, stats
                )
            except (KeyboardInterrupt, SystemExit):
                # Leave no orphaned workers behind: cancel queued futures,
                # terminate the pool and surface the interrupt to the caller.
                _terminate_pool_locked()
                raise
    finally:
        default_registry().histogram(
            "repro_fanout_seconds",
            "Wall time of one map_ordered fan-out (serial or pool).",
            labels=("mode",),
        ).observe(
            time.perf_counter() - started,
            mode="serial" if jobs == 1 or len(payloads) <= 1 else "pool",
        )
