"""Span recording for the traced run, from outside the program.

:func:`install` wraps the public entry points of each layer (plan run,
payload execution, request generation, trace generation, multi-source
serving, batch serving, fleet dispatch) for the duration of a ``with``
block.  Each call becomes one span: name, start, end, parent, thread and
run id, kept in memory and written out once the run ends.

A span's *self time* is its duration minus the durations of its direct
children.  Per thread ("track"), the self times of all spans plus the time
covered by no span add up exactly to the track's wall time, because every
quantity is an integer number of nanoseconds.
"""

from __future__ import annotations

import contextlib
import json
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional


#: How many executed payloads a traced run keeps for the codec probe.
CAPTURED_PAYLOADS = 64


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int
    parent: Optional[int]
    track: int
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class SpanRecorder:
    """Collects nested spans per thread; nothing leaves memory until :meth:`dump`."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: List[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self.tracks: Dict[int, List[int]] = {}
        #: The first payloads :func:`install` saw executed (for codec probes).
        self.captured_payloads: List[object] = []

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def track(self) -> Iterator[None]:
        """Mark the calling thread's measured interval (one per thread)."""
        started = time.perf_counter_ns()
        try:
            yield
        finally:
            self.add_track(threading.get_ident(), started, time.perf_counter_ns())

    def add_track(self, key: int, start_ns: int, end_ns: int) -> None:
        """Record a measured interval for ``key`` (a thread, or a connection)."""
        with self._lock:
            self.tracks[key] = [start_ns, end_ns]

    def add(self, name: str, start_ns: int, end_ns: int, track: int) -> None:
        """Record a top-level span measured by the caller (for asyncio tasks,
        which share one thread and so cannot use the per-thread stack)."""
        with self._lock:
            self.spans.append(Span(name, start_ns, end_ns, None, track))

    @contextlib.contextmanager
    def span(self, name: str, **attrs: object) -> Iterator[Span]:
        stack = self._stack()
        record = Span(
            name=name,
            start_ns=time.perf_counter_ns(),
            end_ns=0,
            parent=stack[-1] if stack else None,
            track=threading.get_ident(),
            attrs=attrs,
        )
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        try:
            yield record
        finally:
            stack.pop()
            record.end_ns = time.perf_counter_ns()

    def wrap(self, name: str, fn, attrs=None):
        """``fn`` with every call recorded as a span named ``name``."""

        def traced(*args, **kwargs):
            extra = attrs(*args, **kwargs) if attrs is not None else {}
            with self.span(name, **extra):
                return fn(*args, **kwargs)

        traced.__wrapped__ = fn
        return traced

    def wrap_iter(self, name: str, iterable, size=len):
        """Yield from ``iterable``, one span per step; ``n`` is ``size(item)``."""
        iterator = iter(iterable)
        while True:
            with self.span(name) as record:
                try:
                    item = next(iterator)
                except StopIteration:
                    record.attrs["n"] = 0
                    break
                record.attrs["n"] = size(item)
            yield item

    # ----------------------------------------------------------- analysis

    def self_times(self) -> Dict[str, int]:
        """Self time per span name, in ns (spans still open are skipped)."""
        children: Dict[int, int] = defaultdict(int)
        for span in self.spans:
            if span.parent is not None:
                children[span.parent] += span.duration_ns
        totals: Dict[str, int] = defaultdict(int)
        for index, span in enumerate(self.spans):
            totals[span.name] += span.duration_ns - children[index]
        return dict(totals)

    def outermost(self, name: str, **attrs: object) -> List[Span]:
        """Spans called ``name`` matching ``attrs`` that are not nested in one."""
        return [
            span
            for span in self.spans
            if span.name == name
            and (span.parent is None or self.spans[span.parent].name != name)
            and all(span.attrs.get(key) == value for key, value in attrs.items())
        ]

    def totals(self, name: str, **attrs: object) -> int:
        """Summed duration of the outermost ``name`` spans matching ``attrs``, in ns."""
        return sum(span.duration_ns for span in self.outermost(name, **attrs))

    def items(self, name: str, **attrs: object) -> int:
        """Summed ``n`` attribute of the outermost ``name`` spans matching ``attrs``."""
        return sum(span.attrs.get("n", 0) for span in self.outermost(name, **attrs))

    def attribution(self) -> Dict[str, int]:
        """Self time per span name plus ``"unattributed"``, over every track.

        The values sum exactly to the summed wall time of the tracks.
        """
        shares = self.self_times()
        covered = sum(
            span.duration_ns for span in self.spans if span.parent is None
        )
        shares["unattributed"] = self.wall_ns() - covered
        return shares

    def wall_ns(self) -> int:
        return sum(end - start for start, end in self.tracks.values())

    def dump(self, path: Path) -> None:
        """Write the run's spans as JSON (one document, written once)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        document = {
            "run_id": self.run_id,
            "tracks": {str(k): v for k, v in self.tracks.items()},
            "spans": [
                {
                    "name": span.name,
                    "start_ns": span.start_ns,
                    "end_ns": span.end_ns,
                    "parent": span.parent,
                    "track": span.track,
                    "run_id": self.run_id,
                    **({"attrs": span.attrs} if span.attrs else {}),
                }
                for span in self.spans
            ],
        }
        path.write_text(json.dumps(document))


@contextlib.contextmanager
def install(recorder: SpanRecorder) -> Iterator[SpanRecorder]:
    """Wrap the layers' public entry points for the traced run only."""
    import repro.algorithms  # noqa: F401 - registers every algorithm class
    from repro.algorithms.base import OnlineTreeAlgorithm
    from repro.dist import coordinator
    from repro.network.multi_source import MultiSourceNetwork
    from repro.network.traffic import TrafficSpec
    from repro.plans import execute
    from repro.sim import runner

    patches = []

    def patch(owner, attribute, replacement) -> None:
        patches.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, replacement)

    def execute_attrs(payloads, *_args, **_kwargs) -> Dict[str, object]:
        room = CAPTURED_PAYLOADS - len(recorder.captured_payloads)
        recorder.captured_payloads.extend(list(payloads)[: max(room, 0)])
        return {"payloads": len(payloads)}

    traced_execute = recorder.wrap("sim.execute", runner.execute_payloads, attrs=execute_attrs)
    patch(runner, "execute_payloads", traced_execute)
    patch(execute, "execute_payloads", traced_execute)
    patch(
        coordinator,
        "run_distributed",
        recorder.wrap("dist.run_distributed", coordinator.run_distributed),
    )

    original_build = runner.build_workload

    class _TracedWorkload:
        def __init__(self, workload) -> None:
            self._workload = workload

        def iter_requests(self, *args, **kwargs):
            return recorder.wrap_iter(
                "workloads.generate", self._workload.iter_requests(*args, **kwargs)
            )

    patch(runner, "build_workload", lambda spec: _TracedWorkload(original_build(spec)))

    original_iter_trace = TrafficSpec.iter_trace
    patch(
        TrafficSpec,
        "iter_trace",
        lambda self, *a, **k: recorder.wrap_iter(
            "network.trace", original_iter_trace(self, *a, **k), size=lambda pair: len(pair[1])
        ),
    )
    patch(
        MultiSourceNetwork,
        "serve_trace_stream",
        recorder.wrap("network.serve", MultiSourceNetwork.serve_trace_stream),
    )
    classes = [OnlineTreeAlgorithm]
    for cls in classes:
        classes.extend(sub for sub in cls.__subclasses__() if sub not in classes)
    for cls in classes:
        if "serve_batch" in vars(cls):
            patch(
                cls,
                "serve_batch",
                recorder.wrap(
                    "algorithms.serve",
                    vars(cls)["serve_batch"],
                    attrs=lambda self, requests: {"algorithm": self.name, "n": len(requests)},
                ),
            )
    try:
        yield recorder
    finally:
        for owner, attribute, original in reversed(patches):
            setattr(owner, attribute, original)
