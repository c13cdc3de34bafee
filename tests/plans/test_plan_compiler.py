"""The plan compiler: one flat payload list, one fan-out pass per settings.

Every plan tree compiles to one payload list, and ``repro.run`` executes it
with one :func:`~repro.sim.runner.execute_payloads` call per distinct set of
fan-out settings.  So every run setting (``executor``, ``cache_dir``,
``resume``, ...) reaches every payload of every golden plan by construction,
and the counters ``repro.run`` publishes are frozen when it returns.
"""

from __future__ import annotations

import pytest
from test_plan_equivalence import result_digest

import repro
from repro.dist.worker import WorkerServer
from repro.plans import (
    ExperimentPlan,
    RunConfig,
    TrialPlan,
    golden_plan_names,
    last_run_stats,
    load_golden_plan,
    plan_with_overrides,
)
from repro.plans import execute as plan_execute
from repro.plans.execute import build_payloads
from repro.workloads.spec import WorkloadSpec

GOLDENS = golden_plan_names()


def toy_golden(name: str):
    """``repro run NAME --trials 1 --requests 300``."""
    return plan_with_overrides(load_golden_plan(name), n_trials=1, n_requests=300)


@pytest.fixture(scope="module")
def fleet_address():
    workers = [WorkerServer().start(), WorkerServer().start()]
    yield "tcp://" + ",".join(f"{w.host}:{w.port}" for w in workers)
    for worker in workers:
        worker.stop()


@pytest.fixture()
def fanout_calls(monkeypatch):
    """Record (payload count, n_jobs) of every fan-out pass of the compiler."""
    calls = []
    original = plan_execute.execute_payloads

    def counting(payloads, n_jobs, **kwargs):
        calls.append((len(payloads), n_jobs))
        return original(payloads, n_jobs, **kwargs)

    monkeypatch.setattr(plan_execute, "execute_payloads", counting)
    return calls


class TestEverySettingReachesEveryPayload:
    @pytest.mark.parametrize("name", GOLDENS)
    def test_executor_runs_every_payload_remotely(self, name, fleet_address):
        repro.run(toy_golden(name), executor=fleet_address)
        stats = last_run_stats()
        assert stats.executed > 0
        assert stats.remote_executed == stats.executed
        assert not stats.degraded_remote

    @pytest.mark.parametrize("name", GOLDENS)
    def test_plan_cache_dir_stores_every_payload_and_resumes_warm(self, name, tmp_path):
        plan = plan_with_overrides(toy_golden(name), cache_dir=str(tmp_path))
        cold = repro.run(plan)
        stats = last_run_stats()
        assert stats.executed > 0
        assert stats.stored == stats.executed
        warm = repro.run(plan, resume=True)
        assert last_run_stats().executed == 0
        assert result_digest(warm) == result_digest(cold)


class TestOneFanOut:
    @pytest.mark.parametrize("name", GOLDENS)
    def test_each_golden_makes_exactly_one_pass(self, name, fanout_calls):
        plan = toy_golden(name)
        repro.run(plan)
        assert fanout_calls == [(len(build_payloads(plan)), 1)]

    def test_stages_with_different_settings_get_one_pass_each(self, fanout_calls):
        def stage(n_jobs):
            return TrialPlan(
                n_nodes=31,
                workload=WorkloadSpec.create("uniform", n_elements=31),
                algorithms=("rotor-push", "static-oblivious"),
                config=RunConfig(n_requests=100, n_trials=2, n_jobs=n_jobs),
            )

        plan = ExperimentPlan.create(
            name="mixed",
            stages=(("a", stage(1)), ("b", stage(2)), ("c", stage(1))),
            assembler="tables",
        )
        result = repro.run(plan)
        # stages a and c share a pass; b runs under its own n_jobs
        assert fanout_calls == [(8, 1), (4, 2)]
        serial = repro.run(stage(1))
        assert all(table.rows == serial.rows for table in result.values())


class TestPublishedStats:
    def test_last_run_stats_is_frozen_when_run_returns(self):
        repro.run(toy_golden("smoke"))
        stats = last_run_stats()
        published = stats.as_dict()
        assert published["executed"] > 0
        repro.run(toy_golden("q2"))
        assert stats.as_dict() == published
        assert last_run_stats().executed != published["executed"]

    def test_frozen_stats_refuse_updates(self):
        repro.run(toy_golden("smoke"))
        with pytest.raises(AttributeError):
            last_run_stats().executed = 0
