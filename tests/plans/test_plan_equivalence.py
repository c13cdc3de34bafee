"""Plan equivalence: every golden and builder plan against a recorded fixture.

``plan_equivalence_fixture.json`` was recorded from the hand-written
``TrialRunner``/``ParameterSweep`` orchestration that the plan compiler
replaced.  For each plan of the matrix below it holds:

* the SHA-256 digest of the plan's result (every table's columns and rows,
  floats at full precision) at ``n_jobs ∈ {1, 4}``, once per NumPy leg (the
  pure-Python Zipf sampler draws a different stream than NumPy's).  NumPy
  may change ``Generator.choice`` streams between releases, so the fixture
  records the NumPy version of its NumPy leg, and that leg's digests are
  checked only under the same version;
* the ordered ``payload_key`` list of the plan's compiled payloads, so
  existing result stores stay warm;
* the ``plan_hash`` of the plan.

A digest, key or hash that moves means the compiler changed what a plan
computes.  Regenerate the fixture only for an intended change of results:
``PYTHONPATH=src python tests/plans/test_plan_equivalence.py --record``,
once with NumPy importable and once without (each run rewrites its own leg).
A NumPy upgrade alone is no reason to re-record: the version skip above
keeps the parent-recorded digests as evidence, and the pure-Python leg and
the payload keys are checked regardless.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Dict

import pytest

import repro
from repro.core import backend
from repro.experiments import (
    SCALES,
    build_q1_spatial_plan,
    build_q1_temporal_plan,
    build_q2_plan,
    build_q3_plan,
    build_q4_histogram_plan,
    build_q4_wireframe_plan,
    build_q5_complexity_plan,
    build_q5_costs_plan,
)
from repro.experiments.config import ExperimentScale
from repro.experiments.q5_corpus import corpus_for_scale
from repro.plans import dumps, golden_plan_names, load_golden_plan, loads, plan_with_overrides
from repro.resilience.store import payload_key, plan_hash
from repro.sim.metrics import Histogram
from repro.sim.results import ResultTable

# A miniature scale so the full equivalence matrix runs in seconds.
SCALES.setdefault(
    "unit",
    ExperimentScale(
        name="unit",
        n_nodes=127,
        n_requests=1_200,
        n_trials=2,
        q1_sizes=[31, 127],
        temporal_probabilities=[0.0, 0.9],
        zipf_exponents=[1.001, 2.2],
        q4_probabilities=[0.0, 0.9],
        q4_exponents=[1.001, 2.2],
        corpus_scale=0.03,
    ),
)

SCALE = "unit"
JOBS = [1, 4]

#: Goldens run at toy scale: ``repro run NAME --trials 1 --requests 300``.
GOLDEN_OVERRIDES = {"n_trials": 1, "n_requests": 300}

FIXTURE_PATH = Path(__file__).with_name("plan_equivalence_fixture.json")

BUILDERS = {
    "q1_temporal": build_q1_temporal_plan,
    "q1_spatial": build_q1_spatial_plan,
    "q2": build_q2_plan,
    "q3": build_q3_plan,
    "q4_wireframe": build_q4_wireframe_plan,
    "q4_histogram": build_q4_histogram_plan,
    "q5_costs": build_q5_costs_plan,
}


def matrix_plan(name: str, n_jobs: int):
    """Return the plan of matrix entry ``name`` at ``n_jobs`` workers."""
    if name.startswith("golden:"):
        golden = load_golden_plan(name[len("golden:"):])
        return plan_with_overrides(golden, n_jobs=n_jobs, **GOLDEN_OVERRIDES)
    if name == "q5_complexity":
        return build_q5_complexity_plan(SCALE)  # parent-side analysis, no payloads
    return BUILDERS[name](SCALE, n_jobs=n_jobs)


def matrix_names():
    return list(BUILDERS) + ["q5_complexity"] + [
        f"golden:{name}" for name in golden_plan_names()
    ]


def canonical(result) -> object:
    """Return a JSON-able, type-faithful rendering of a plan result."""
    if isinstance(result, ResultTable):
        return {
            "name": result.name,
            "columns": list(result.columns),
            "rows": [[row[column] for column in result.columns] for row in result.rows],
        }
    if isinstance(result, Histogram):
        return {"counts": sorted(result.counts.items()), "total": result.total}
    if isinstance(result, dict):
        return {str(key): canonical(value) for key, value in result.items()}
    if isinstance(result, (tuple, list)):
        return [canonical(value) for value in result]
    return result


def result_digest(result) -> str:
    """SHA-256 of :func:`canonical` (floats at full ``repr`` precision)."""
    text = json.dumps(canonical(result), sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def compiled_payload_keys(plan):
    from repro.plans.execute import build_payloads

    return [payload_key(payload) for payload in build_payloads(plan)]


def numpy_leg() -> str:
    return "numpy" if backend.HAS_NUMPY else "python"


def numpy_version() -> str:
    import numpy

    return numpy.__version__


def record(path: Path = FIXTURE_PATH) -> None:
    """Recompute this NumPy leg's part of the fixture and write it to ``path``."""
    document: Dict[str, object] = (
        json.loads(path.read_text()) if path.is_file() else {"plans": {}}
    )
    if backend.HAS_NUMPY:
        document["numpy_version"] = numpy_version()
    plans: Dict[str, Dict[str, object]] = document["plans"]
    for name in matrix_names():
        entry = plans.setdefault(name, {"digests": {}})
        digests = entry["digests"][numpy_leg()] = {}
        for n_jobs in JOBS:
            plan = matrix_plan(name, n_jobs)
            digests[str(n_jobs)] = result_digest(repro.run(plan))
        entry["plan_hash"] = plan_hash(matrix_plan(name, 1))
        entry["payload_keys"] = compiled_payload_keys(matrix_plan(name, 1))
    path.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")


@pytest.fixture(scope="module")
def fixture():
    return json.loads(FIXTURE_PATH.read_text())


def test_fixture_covers_the_matrix(fixture):
    assert sorted(fixture["plans"]) == sorted(matrix_names())


@pytest.mark.parametrize("n_jobs", JOBS)
@pytest.mark.parametrize("name", matrix_names())
def test_result_matches_recorded_digest(name, n_jobs, fixture):
    if backend.HAS_NUMPY and numpy_version() != fixture["numpy_version"]:
        pytest.skip(
            f"digests recorded under NumPy {fixture['numpy_version']}, running "
            f"{numpy_version()}: NumPy may change its random streams between "
            "releases (payload keys and the pure-Python leg are still checked)"
        )
    result = repro.run(matrix_plan(name, n_jobs))
    expected = fixture["plans"][name]["digests"][numpy_leg()][str(n_jobs)]
    assert result_digest(result) == expected


@pytest.mark.parametrize("name", matrix_names())
def test_payload_keys_and_plan_hash_match_recorded(name, fixture):
    plan = matrix_plan(name, 1)
    assert plan_hash(plan) == fixture["plans"][name]["plan_hash"]
    assert compiled_payload_keys(plan) == fixture["plans"][name]["payload_keys"]


def test_q5_complexity_map_matches_direct_analysis():
    plan_table = repro.run(build_q5_complexity_plan(SCALE))
    from repro.experiments.q5_corpus import _complexity_table

    assert plan_table.rows == _complexity_table(corpus_for_scale(SCALE)).rows


@pytest.mark.parametrize(
    "builder",
    [build_q1_temporal_plan, build_q2_plan, build_q4_wireframe_plan],
)
def test_json_reload_reruns_identically(builder):
    """A plan dumped to JSON, reloaded and re-run reproduces the same table."""
    plan = builder(SCALE)
    direct = repro.run(plan)
    reloaded_plan = loads(dumps(plan))
    assert reloaded_plan == plan
    reloaded = repro.run(reloaded_plan)
    assert reloaded.rows == direct.rows


def test_parallel_equals_serial_through_plans():
    """The n_jobs knob inside a plan config never changes results."""
    serial = repro.run(build_q2_plan(SCALE, n_jobs=1))
    parallel = repro.run(build_q2_plan(SCALE, n_jobs=4))
    assert serial.rows == parallel.rows


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_plan_equivalence.py --record")
    record()
