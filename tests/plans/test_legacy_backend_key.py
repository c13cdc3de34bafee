"""Documents written while the serve backend was a user-set knob still work.

Older plan documents, ingest-log headers and payload documents carry a
``"backend"`` key (``"array"``, ``"python"``, ``"auto"`` or ``null``).  The
kernel is now chosen per chunk, so the key is accepted and ignored: it
changes neither the loaded object, its content hash nor any result byte.
"""

from __future__ import annotations

import json
import random

import pytest

import repro
from repro.core import backend as backend_mod
from repro.dist.protocol import payload_from_dict, payload_to_dict
from repro.plans import ExperimentPlan, RunConfig, TrialPlan, dumps, loads
from repro.resilience.store import payload_key, plan_hash
from repro.serve.engine import ServeEngine
from repro.serve.ingest import IngestWriter, read_ingest_log
from repro.serve.replay import build_replay_plan
from repro.sim.runner import SpecSource, TrialPayload
from repro.workloads.spec import WorkloadSpec

LEGACY_VALUES = ["array", "python", "auto", None]


def tiny_trial_plan() -> TrialPlan:
    return TrialPlan(
        n_nodes=31,
        workload=WorkloadSpec.create("uniform", n_elements=31),
        algorithms=("rotor-push", "static-oblivious"),
        config=RunConfig(n_requests=200, n_trials=1),
    )


def with_backend_key(plan, value) -> str:
    document = json.loads(dumps(plan))
    document["config"]["backend"] = value
    return json.dumps(document)


class TestPlanDocuments:
    @pytest.mark.parametrize("value", LEGACY_VALUES)
    def test_document_loads_and_runs_to_the_identical_table(self, value):
        plan = tiny_trial_plan()
        legacy = loads(with_backend_key(plan, value))
        assert legacy == plan
        assert plan_hash(legacy) == plan_hash(plan)
        assert repro.run(legacy).format_text() == repro.run(plan).format_text()

    def test_array_document_runs_without_numpy(self, monkeypatch):
        plan = tiny_trial_plan()
        expected = repro.run(plan).format_text()
        monkeypatch.setattr(backend_mod, "HAS_NUMPY", False)
        assert repro.run(loads(with_backend_key(plan, "array"))).format_text() == expected

    def test_nested_stage_documents_load(self):
        nested = ExperimentPlan.create(
            name="outer",
            stages=(("inner", tiny_trial_plan()),),
            assembler="tables",
        )
        document = json.loads(dumps(nested))
        document["stages"][0]["plan"]["config"]["backend"] = "array"
        assert loads(json.dumps(document)) == nested


@pytest.mark.parametrize("value", LEGACY_VALUES)
def test_ingest_log_header_with_backend_replays_byte_identically(tmp_path, value):
    header = {
        "n_nodes": 63,
        "algorithm": {"name": "rotor-push"},
        "backend": value,
        "base_seed": 7,
    }
    engine = ServeEngine(63, "rotor-push", base_seed=7, log=IngestWriter(tmp_path / "log", header))
    rng = random.Random(5)
    for source in ("a", "b"):
        engine.bind(source)
    for _ in range(40):
        size = rng.choice((1, 4, 16, 100))
        engine.submit(rng.choice(("a", "b")), [rng.randrange(63) for _ in range(size)])
    engine.log.close()
    log = read_ingest_log(tmp_path / "log")
    assert log.header["backend"] == value
    replayed = repro.run(build_replay_plan(log))
    assert replayed.format_text() == engine.cost_table().format_text()


@pytest.mark.parametrize("value", LEGACY_VALUES)
def test_payload_document_with_backend_decodes_to_the_same_payload(value):
    payload = TrialPayload(
        algorithm="rotor-push",
        source=SpecSource(WorkloadSpec.create("uniform", n_elements=15, seed=3), 10),
        n_nodes=15,
        placement_seed=1,
        algorithm_seed=2,
        keep_records=False,
        trial=0,
    )
    document = payload_to_dict(payload)
    document["backend"] = value
    decoded = payload_from_dict(json.loads(json.dumps(document)))
    assert decoded == payload
    assert payload_key(decoded) == payload_key(payload)
