"""What one workload run measured, and readers for metrics snapshots."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple


@dataclass
class Outcome:
    """End-to-end numbers, failure counts and (traced runs) layer numbers."""

    setup_s: float = 0.0
    #: Throughput samples: one per repro.run call, or per live window (1/s).
    rates: List[float] = field(default_factory=list)
    #: One sample per unit a user waits for: a repro.run call or a batch.
    latencies_ms: List[float] = field(default_factory=list)
    #: Requests served and wall seconds of the whole timed region.
    served: int = 0
    wall_s: float = 0.0
    peak_rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    #: Output checks that failed; empty means the outputs are correct.
    problems: List[str] = field(default_factory=list)
    layers: Dict[str, float] = field(default_factory=dict)
    recorder: Optional[object] = None


def _rows(snapshot: Dict[str, dict], name: str) -> List[dict]:
    """Value rows of metric ``name`` in a registry snapshot (grouped by kind)."""
    for families in snapshot.values():
        if name in families:
            return list(families[name]["values"])
    return []


def counter_value(snapshot: Dict[str, dict], name: str) -> float:
    """A counter's total over all label sets (0 when never created)."""
    return float(sum(row["value"] for row in _rows(snapshot, name)))


def counter_delta(before: Dict[str, dict], after: Dict[str, dict], name: str) -> float:
    return counter_value(after, name) - counter_value(before, name)


def hist_delta(before: Dict[str, dict], after: Dict[str, dict], name: str) -> Tuple[float, int]:
    """(sum, count) a histogram gained between two snapshots."""
    total = sum(row["sum"] for row in _rows(after, name)) - sum(
        row["sum"] for row in _rows(before, name)
    )
    count = sum(row["count"] for row in _rows(after, name)) - sum(
        row["count"] for row in _rows(before, name)
    )
    return total, count


def hist_mean_ms(before: Dict[str, dict], after: Dict[str, dict], name: str) -> float:
    """Mean of the observations (seconds) made between two snapshots, in ms."""
    total, count = hist_delta(before, after, name)
    return total / count * 1e3 if count else 0.0
