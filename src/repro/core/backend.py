"""NumPy gating and the batch-kernel size threshold.

Placement state always lives in plain lists, and the scalar fast loop
(:meth:`repro.algorithms.base.OnlineTreeAlgorithm._serve_fast`) is the
canonical serve implementation: it has no optional dependencies and its
results define correctness.  When NumPy is importable,
:meth:`~repro.algorithms.base.OnlineTreeAlgorithm.serve_batch` settles chunks
of at least :data:`BATCH_KERNEL_MIN_CHUNK` requests with vectorised kernels
instead; both produce bit-identical placements, ledger totals and per-request
records.

Everything here reads :data:`HAS_NUMPY` and :data:`BATCH_KERNEL_MIN_CHUNK` at
call time (not import time) so the test suite can force either side by
monkeypatching one module attribute.
"""

from __future__ import annotations

from typing import Dict

try:  # pragma: no cover - exercised via both CI matrix legs
    import numpy as np

    HAS_NUMPY = True
except ImportError:  # pragma: no cover
    np = None  # type: ignore[assignment]
    HAS_NUMPY = False

__all__ = [
    "BATCH_KERNEL_MIN_CHUNK",
    "HAS_NUMPY",
    "np",
    "node_levels_view",
    "as_request_array",
]

#: Shortest chunk that ``serve_batch`` hands to a vectorised kernel (must be
#: at least 1).  Each kernel call pays a fixed NumPy set-up cost (array
#: coercion, and for static trees a copy of ``node_of``) that only long
#: chunks amortise.  Measured crossover on a 1023-node tree, combined-locality
#: traffic, list chunks, one pinned CPU, NumPy 2.4 (µs/req, kernel vs scalar,
#: median of 7):
#:
#: ================  ===========  ===========  ===========  ===========
#: chunk             16           32           64           128
#: ================  ===========  ===========  ===========  ===========
#: rotor-push        1.47 / 1.27  1.02 / 1.28  0.84 / 1.24  0.49 / 1.14
#: move-to-front     1.11 / 0.91  0.73 / 0.91  0.49 / 0.67  0.33 / 0.99
#: static-oblivious  2.23 / 0.65  1.58 / 0.62  0.46 / 0.33  0.24 / 0.34
#: ================  ===========  ===========  ===========  ===========
#:
#: The root-promoting kernels win from 32 requests, the static kernel from
#: about 100; 64 takes the root-promoting gains while the static kernel is
#: within 0.15 µs/req, and keeps live batches (1-16 requests) on the loop.
BATCH_KERNEL_MIN_CHUNK = 64

#: Cached node-level lookup tables keyed by tree size (shared, read-only).
_LEVEL_TABLES: Dict[int, "np.ndarray"] = {}


def node_levels_view(n_nodes: int) -> "np.ndarray":
    """Return the cached level-of-node lookup array for a tree of ``n_nodes``.

    The NumPy mirror of :func:`repro.core.tree.node_levels_table` — built
    from it, so the bit-length identity in ``tree.py`` stays the single
    authoritative definition.  The table turns the per-request bit-length
    computation into one fancy-index over the whole chunk; it is computed
    once per tree size and shared read-only.
    """
    table = _LEVEL_TABLES.get(n_nodes)
    if table is None:
        from repro.core.tree import node_levels_table

        table = np.asarray(node_levels_table(n_nodes), dtype=np.intp)
        table.setflags(write=False)
        _LEVEL_TABLES[n_nodes] = table
    return table


def as_request_array(chunk) -> "np.ndarray":
    """Coerce a request chunk to a 1-D integer ndarray (no copy if already one)."""
    if isinstance(chunk, np.ndarray):
        return chunk
    return np.asarray(chunk, dtype=np.intp)
