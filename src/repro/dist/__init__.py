"""Distributed multi-host execution: lease-based dispatch over TCP.

The resilience layer (PR 6) made trial execution location-independent:
payloads are pure content — specs only, seeds derived from the trial index —
and results are content-keyed, self-verifying :class:`repro.resilience.
ResultStore` entries.  This package exploits that property to spread a
campaign over long-lived worker daemons on other hosts:

* :mod:`repro.dist.protocol` — the wire format: length-prefixed JSON frames,
  the payload/result codecs (every field is already a spec with a
  ``to_dict``/``from_dict`` pair), and :class:`ExecutorSpec`, the parsed form
  of an executor address string (``tcp://host:port,host:port?lease=30``);
* :mod:`repro.dist.worker` — the worker daemon (``repro worker --listen
  tcp://0.0.0.0:PORT``): accepts one coordinator at a time, executes leased
  payloads in order on its connection thread while a per-session heartbeat
  thread keeps the lease alive, and reports results (or injected
  worker-level faults);
* :mod:`repro.dist.coordinator` — the lease-based scheduler behind
  ``repro.run(plan, executor=...)``: each payload is leased to one worker
  with a deadline, heartbeats renew the deadline, an expired lease (worker
  crash, hang or partition) requeues the payload for another worker, and
  duplicate completions from lease races resolve idempotently by content
  key.  When the whole fleet is lost the run *degrades* — remote fleet →
  local process pool → in-process serial — through the same
  :func:`repro.sim.parallel.map_ordered` seam the resilient executor already
  uses, so results are byte-identical wherever they are computed.
"""

from __future__ import annotations

from repro.dist.coordinator import DistributedExecutor, run_distributed
from repro.dist.protocol import (
    ExecutorSpec,
    payload_from_dict,
    payload_to_dict,
    recv_frame,
    send_frame,
)
from repro.dist.worker import WorkerServer, run_worker

__all__ = [
    "DistributedExecutor",
    "ExecutorSpec",
    "WorkerServer",
    "payload_from_dict",
    "payload_to_dict",
    "recv_frame",
    "run_distributed",
    "run_worker",
    "send_frame",
]
