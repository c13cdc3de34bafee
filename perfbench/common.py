"""Shared plumbing: paths, calibration, process accounting, daemons, digests.

Everything the benchmark writes goes under ``.bench_out/`` in the checkout
it runs from; daemons listen on ephemeral localhost ports.
"""

from __future__ import annotations

import hashlib
import json
import os
import queue
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

#: How long a daemon may take to print its readiness or drain line.
DAEMON_TIMEOUT_S = 30.0


def child_env() -> Dict[str, str]:
    """Environment for every subprocess: the checkout's sources, unbuffered."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONUNBUFFERED"] = "1"
    return env


def scratch_dir(prefix: str) -> Path:
    """A fresh directory under ``.bench_out/``; the caller removes it."""
    OUT_DIR.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=prefix, dir=OUT_DIR))


def remove_dir(path: Optional[Path]) -> None:
    if path is not None:
        shutil.rmtree(path, ignore_errors=True)


# ------------------------------------------------------------ calibration


def calibration_loop_ms(repeats: int = 5) -> List[float]:
    """Time a fixed pure-Python loop; one sample per repeat, in ms."""
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        total = 0
        for value in range(200_000):
            total = (total + value * value) % 1_000_003
        samples.append((time.perf_counter() - started) * 1e3)
    return samples


# ------------------------------------------------------- process accounting


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """Peak resident set (``VmHWM``) of ``pid`` (default: this process), MB."""
    path = f"/proc/{'self' if pid is None else pid}/status"
    with open(path) as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in {path}")


def cpu_seconds(pid: int) -> float:
    """User plus system CPU time consumed so far by ``pid``."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    # fields[0] is the state (field 3 of proc(5)); utime/stime are 14/15
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


# ------------------------------------------------------------- statistics


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-quantile (0 <= q <= 1) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("quantile of no values")
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


# ----------------------------------------------------------------- digests


def table_document(table) -> Dict[str, object]:
    """Columns and rows of a ``ResultTable``, as plain JSON data."""
    return {
        "columns": list(table.columns),
        "rows": [dict(row) for row in table.rows],
    }


def table_digest(table) -> str:
    """SHA-256 of a table's columns and rows (floats at full precision)."""
    text = json.dumps(table_document(table), sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------- daemons


class DaemonError(RuntimeError):
    """A daemon failed to start, or failed to drain before its timeout."""


class Daemon:
    """One ``python -m repro <command>`` subprocess with line-based readiness.

    A reader thread drains the child's combined output into a queue, so a
    chatty daemon can never block on a full pipe.  :meth:`stop` sends
    SIGTERM and waits for the drain line; a daemon that misses it is killed
    and the stop reports failure.
    """

    def __init__(self, args: Sequence[str], ready_prefix: str, drain_prefix: str) -> None:
        self.drain_prefix = drain_prefix
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", *args],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            stdin=subprocess.DEVNULL,
            text=True,
            env=child_env(),
            cwd=ROOT,
        )
        self.lines: "queue.Queue[Optional[str]]" = queue.Queue()
        self.output: List[str] = []
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        self.metrics_url: Optional[str] = None
        try:
            self.address = self.wait_for(ready_prefix).split()[-1]
        except DaemonError:
            self.process.kill()
            self._close()
            raise

    @property
    def pid(self) -> int:
        return self.process.pid

    def _read(self) -> None:
        for line in self.process.stdout:
            self.lines.put(line.rstrip("\n"))
        self.lines.put(None)

    def wait_for(self, prefix: str, timeout: float = DAEMON_TIMEOUT_S) -> str:
        """Return the first output line starting with ``prefix``."""
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            try:
                line = self.lines.get(timeout=max(remaining, 0.0))
            except queue.Empty:
                raise DaemonError(f"no {prefix!r} line within {timeout}s") from None
            if line is None:
                raise DaemonError(
                    f"daemon exited before {prefix!r}: " + " | ".join(self.output[-5:])
                )
            self.output.append(line)
            if line.startswith("metrics listening on "):
                self.metrics_url = line.split()[-1]
            if line.startswith(prefix):
                return line

    def stop(self) -> bool:
        """SIGTERM, wait for the drain line and exit; kill on timeout."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        drained = True
        try:
            self.wait_for(self.drain_prefix)
            self.process.wait(timeout=DAEMON_TIMEOUT_S)
        except (DaemonError, subprocess.TimeoutExpired):
            drained = False
            self.process.kill()
        self._close()
        return drained and self.process.returncode == 0

    def _close(self) -> None:
        self.process.wait()
        self._reader.join(timeout=DAEMON_TIMEOUT_S)
        self.process.stdout.close()


def stop_all(daemons: Sequence[Daemon]) -> bool:
    """Stop every daemon (all of them, even after a failure); True if all drained."""
    results = [daemon.stop() for daemon in daemons]
    return all(results)
