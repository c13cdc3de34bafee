"""The plan workloads' plans, stamped with the run's seed.

Kept apart from the timing code so that the setup probe (a fresh process
that builds a plan) imports only what a user of these plans imports.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Tuple

from repro.experiments.datacenter import build_datacenter_plan
from repro.plans import ExperimentPlan, RunConfig, TrialPlan, dumps, loads
from repro.workloads.spec import WorkloadSpec

PAPER_ALGORITHMS = (
    "rotor-push",
    "random-push",
    "move-to-front",
    "move-half",
    "max-push",
    "static-oblivious",
)
PAPER_NODES = 1023
PAPER_REQUESTS = 10_000

DATACENTER_RACKS = 256
DATACENTER_SOURCES = 8
DATACENTER_REQUESTS_PER_SOURCE = 2_000

FLEET_NODES = 255
FLEET_ALGORITHMS = ("rotor-push", "random-push", "move-to-front", "static-oblivious")
FLEET_REQUESTS = 200
FLEET_TRIALS = 25
FLEET_WORKERS = 2

def combined_locality(n_elements: int) -> WorkloadSpec:
    return WorkloadSpec.create(
        "combined-locality",
        n_elements=n_elements,
        zipf_exponent=1.4,
        repeat_probability=0.5,
    )


def build_plan(workload: str, seed: int):
    """The workload's plan with ``seed`` stamped in; runs serially."""
    if workload == "paper_compare":
        return TrialPlan(
            name="paper_compare",
            n_nodes=PAPER_NODES,
            workload=combined_locality(PAPER_NODES),
            algorithms=PAPER_ALGORITHMS,
            config=RunConfig(
                n_requests=PAPER_REQUESTS, n_trials=1, base_seed=seed, n_jobs=1
            ),
        )
    if workload == "datacenter_traffic":
        plan = build_datacenter_plan(
            n_racks=DATACENTER_RACKS,
            n_sources=DATACENTER_SOURCES,
            requests_per_source=DATACENTER_REQUESTS_PER_SOURCE,
            n_jobs=1,
        )
        stages = tuple(
            (key, replace(stage, config=replace(stage.config, base_seed=seed)))
            for key, stage in plan.stages
        )
        return replace(plan, stages=stages)
    if workload == "fleet_dispatch":
        return TrialPlan(
            name="fleet_dispatch",
            n_nodes=FLEET_NODES,
            workload=combined_locality(FLEET_NODES),
            algorithms=FLEET_ALGORITHMS,
            config=RunConfig(
                n_requests=FLEET_REQUESTS,
                n_trials=FLEET_TRIALS,
                base_seed=seed,
                n_jobs=1,
            ),
        )
    raise ValueError(f"not a plan workload: {workload!r}")


def plan_size(plan) -> Tuple[int, int]:
    """(requests served, payloads executed) by one run of ``plan``."""
    if isinstance(plan, TrialPlan):
        payloads = len(plan.algorithms) * plan.config.n_trials
        return payloads * plan.config.n_requests, payloads
    if isinstance(plan, ExperimentPlan):
        requests = payloads = 0
        for _key, stage in plan.stages:
            sub_requests, sub_payloads = plan_size(stage)
            requests += sub_requests
            payloads += sub_payloads
        return requests, payloads
    # NetworkPlan: requests_per_source for every source, per trial
    sources = len(plan.traffic.source_ids())
    return (
        sources * plan.config.n_requests * plan.config.n_trials,
        plan.config.n_trials,
    )


def setup_probe(workload: str, seed: int) -> None:
    """Child-process body of one setup measurement: build and round-trip the plan."""
    plan = build_plan(workload, seed)
    loads(dumps(plan))
    print("ready", flush=True)
