"""Plan execution: compile any plan tree to one payload list, fan it out once.

:func:`run` is the public face (re-exported as ``repro.run``).  It takes any
plan object and runs it in three steps:

1. **Compile.**  Every leaf plan type — :class:`~repro.plans.model.TrialPlan`,
   :class:`~repro.plans.model.SweepPlan`,
   :class:`~repro.plans.model.NetworkPlan` and
   :class:`~repro.plans.model.TrafficSweepPlan` — is a payload builder plus a
   fold from its slice of the results to its :class:`StageResult`.  An
   :class:`~repro.plans.model.ExperimentPlan` concatenates its stages'
   payloads; an assembler registered with a payload builder (the
   assembler-only q4 histogram, q5 costs, corpus pipeline and adversarial
   experiments) appends its own.  The result is one flat payload list with
   per-stage slices (:func:`build_payloads` returns it).
2. **Fan out.**  :func:`~repro.sim.runner.execute_payloads` runs once per
   distinct set of fan-out settings (``n_jobs``, ``worker_timeout``,
   ``max_retries``, ``cache_dir``, ``executor``) in the plan tree — one pass
   for a plan whose stages agree, as every shipped golden plan does.  Each
   payload runs under its own stage's settings.
3. **Fold.**  Each stage folds its slice; experiment plans hand their
   stages to their registered *assembler*, which turns them into the
   experiment's output.  The generic assemblers live here; the
   figure-specific ones are registered by the :mod:`repro.experiments`
   modules at import time and resolved lazily, mirroring the workload-kind
   registry.

Payload seeds derive from the trial index alone, so a plan's results are
bit-identical for every ``n_jobs``, cache state and executor, pinned by the
golden-plan equivalence fixture.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.algorithms.base import RunResult
from repro.algorithms.registry import AlgorithmSpec
from repro.exceptions import ExperimentError, PlanError
from repro.network.traffic import TrafficSpec
from repro.plans.model import (
    ExperimentPlan,
    NetworkPlan,
    Plan,
    RunConfig,
    SweepPlan,
    TrafficSweepPlan,
    TrialPlan,
    plan_with_overrides,
)
from repro.resilience.context import (
    ExecutionContext,
    ResilienceStats,
    activate_context,
)
from repro.resilience.faults import fault_spec_from_env
from repro.resilience.retry import RetryPolicy
from repro.resilience.store import ResultStore
from repro.sim.results import ResultTable, summarise_values
from repro.sim.runner import (
    AggregatedOutcome,
    SpecSource,
    TrafficSource,
    TrialOutcome,
    TrialPayload,
    aggregate,
    execute_payloads,
)
from repro.workloads.spec import DEFAULT_CHUNK_SIZE, WorkloadSpec

__all__ = [
    "StageResult",
    "build_payloads",
    "last_run_stats",
    "register_assembler",
    "registered_assemblers",
    "run",
]

#: Columns of the table a bare :class:`TrialPlan` produces.
TRIAL_TABLE_COLUMNS = [
    "algorithm",
    "mean_access_cost",
    "mean_adjustment_cost",
    "mean_total_cost",
    "n_trials",
]

#: Trial stride of the network base seed shipped in network payloads.
#: :class:`~repro.network.multi_source.MultiSourceNetwork` derives per-source
#: seeds as ``base + source`` (placement) and ``base + 100_000 + source``
#: (algorithm), so consecutive trials must be spaced further apart than the
#: largest such offset or trial ``i``'s source ``s + 1`` would reuse trial
#: ``i + 1``'s source-``s`` randomness and the "independent" trials would
#: correlate.  One million clears the offsets of any realistic tree
#: (``100_000 + n_nodes`` with ``n_nodes`` up to ~900k).
NETWORK_TRIAL_SEED_STRIDE = 1_000_000

#: Columns of the per-source table a :class:`NetworkPlan` produces.  The
#: ``source`` column holds node identifiers plus one final ``"total"``
#: aggregate row; costs are per-request means over the plan's trials.
NETWORK_TABLE_COLUMNS = [
    "source",
    "n_requests",
    "mean_access_cost",
    "mean_adjustment_cost",
    "mean_total_cost",
    "n_trials",
]

#: Columns of the per-source cost table shared by the live serve engine
#: (:meth:`repro.serve.engine.ServeEngine.cost_table`) and the
#: ``replay_totals`` assembler below.  Totals are exact integers (never
#: per-request means), so the live table and its replay compare bit-for-bit.
REPLAY_TABLE_COLUMNS = [
    "source",
    "n_requests",
    "total_access_cost",
    "total_adjustment_cost",
    "total_cost",
]


@dataclass
class StageResult:
    """What one executed stage hands to the enclosing assembler.

    ``result`` is the stage's public output (what :func:`run` would have
    returned for the stage's plan alone); ``table`` is that output when it is
    a :class:`~repro.sim.results.ResultTable`; ``aggregated`` carries the
    per-algorithm :class:`~repro.sim.runner.AggregatedOutcome` map for trial
    stages, so assemblers (e.g. the Q1 difference table) work from the exact
    aggregates instead of re-parsing rendered rows; ``outcomes`` carries the
    raw per-trial outcome map for trial stages, so assemblers that need
    exact integer totals (e.g. ``replay_totals``) never reconstruct them
    from floating-point means.
    """

    key: str
    plan: Plan
    result: object
    table: Optional[ResultTable] = None
    aggregated: Optional[Dict[str, AggregatedOutcome]] = None
    outcomes: Optional[Dict[str, List["TrialOutcome"]]] = None


#: Payload builder of an assembler-only experiment: fn(plan) -> payloads.
PayloadBuilder = Callable[[ExperimentPlan], List[TrialPayload]]

#: Registered experiment assemblers: name -> (assembler, payload builder).
#: An assembler is fn(plan, stages) -> result, or, when registered with a
#: payload builder, fn(plan, stages, payloads, results) with ``payloads`` the
#: builder's payloads and ``results`` their run results, in the same order.
_ASSEMBLERS: Dict[str, Tuple[Callable[..., object], Optional[PayloadBuilder]]] = {}


def register_assembler(name: str, payloads: Optional[PayloadBuilder] = None):
    """Decorator registering an experiment assembler under ``name``.

    ``payloads`` is the payload builder of an experiment whose work is not a
    stage plan (bespoke seeds, trace data, adaptive adversaries): the plan
    compiler appends the payloads it returns to the plan's flat payload list
    and passes them, then their results, to the assembler after the stages
    (as it does for the leaf folds).
    """

    def decorate(fn):
        _ASSEMBLERS[name] = (fn, payloads)
        return fn

    return decorate


def registered_assemblers() -> List[str]:
    """Return the sorted names of all registered assemblers."""
    _ensure_experiment_assemblers()
    return sorted(_ASSEMBLERS)


def _ensure_experiment_assemblers() -> None:
    """Import the experiment package once so its assemblers are registered."""
    import repro.experiments  # noqa: F401  (imports register the assemblers)


def _assembler(name: str) -> Tuple[Callable[..., object], Optional[PayloadBuilder]]:
    entry = _ASSEMBLERS.get(name)
    if entry is None:
        _ensure_experiment_assemblers()
        entry = _ASSEMBLERS.get(name)
    if entry is None:
        raise PlanError(
            f"unknown assembler {name!r}; registered assemblers: "
            f"{sorted(_ASSEMBLERS)}"
        )
    return entry


@register_assembler("table")
def _assemble_single_table(plan: ExperimentPlan, stages: List[StageResult]) -> object:
    """Pass through the single stage's result."""
    if len(stages) != 1:
        raise PlanError(
            f"assembler 'table' expects exactly one stage, plan {plan.name!r} "
            f"has {len(stages)}"
        )
    return stages[0].result


@register_assembler("tables")
def _assemble_tables(plan: ExperimentPlan, stages: List[StageResult]) -> object:
    """Return the stage results keyed by stage name (the q1/q4/q5 shape)."""
    return {stage.key: stage.result for stage in stages}


@register_assembler("trace_costs")
def _assemble_trace_costs(plan: ExperimentPlan, stages: List[StageResult]) -> object:
    """Merge network-stage tables into one per-source route-cost report.

    Every stage must be a :class:`~repro.plans.model.NetworkPlan`; the output
    table carries one row per (stage, source) plus each stage's ``"total"``
    aggregate row, labelled with the stage key and the stage's algorithm so
    multi-scenario experiments (e.g. the shipped ``multisource`` golden plan)
    read as one comparison.
    """
    if not stages:
        raise PlanError(
            f"assembler 'trace_costs' needs at least one network stage, "
            f"plan {plan.name!r} has none"
        )
    table = ResultTable(
        name=plan.name, columns=["scenario", "algorithm"] + NETWORK_TABLE_COLUMNS
    )
    for stage in stages:
        if not isinstance(stage.plan, NetworkPlan) or stage.table is None:
            raise PlanError(
                f"assembler 'trace_costs' expects network-plan stages, stage "
                f"{stage.key!r} of plan {plan.name!r} is {type(stage.plan).__name__}"
            )
        for row in stage.table.rows:
            table.add_row(
                scenario=stage.key,
                algorithm=stage.plan.algorithm.name,
                **row,
            )
    return table


@register_assembler("replay_totals")
def _assemble_replay_totals(plan: ExperimentPlan, stages: List[StageResult]) -> object:
    """Merge per-source replay stages into one exact-total cost table.

    The assembler of the plans :func:`repro.serve.replay.build_replay_plan`
    produces: every stage is a single-algorithm, single-trial
    :class:`~repro.plans.model.TrialPlan` replaying one source's recorded
    fixed sequence, keyed by the source name.  The output is the live
    engine's cost table, rebuilt offline: one row per source with *integer*
    totals straight from the stage's :class:`~repro.algorithms.base.RunResult`
    (never reconstructed from per-request means, which would not round-trip
    through IEEE floats), plus a ``"total"`` aggregate row.
    """
    table = ResultTable(name=plan.name, columns=list(REPLAY_TABLE_COLUMNS))
    totals = {"n_requests": 0, "access": 0, "adjustment": 0}
    for stage in stages:
        if not isinstance(stage.plan, TrialPlan) or not stage.outcomes:
            raise PlanError(
                f"assembler 'replay_totals' expects trial-plan stages with "
                f"outcomes, stage {stage.key!r} of plan {plan.name!r} is "
                f"{type(stage.plan).__name__}"
            )
        trials = [
            outcome for outcomes in stage.outcomes.values() for outcome in outcomes
        ]
        if len(trials) != 1:
            raise PlanError(
                f"assembler 'replay_totals': stage {stage.key!r} of plan "
                f"{plan.name!r} ran {len(trials)} trials, expected exactly 1"
            )
        result = trials[0].result
        table.add_row(
            source=stage.key,
            n_requests=result.n_requests,
            total_access_cost=result.total_access_cost,
            total_adjustment_cost=result.total_adjustment_cost,
            total_cost=result.total_cost,
        )
        totals["n_requests"] += result.n_requests
        totals["access"] += result.total_access_cost
        totals["adjustment"] += result.total_adjustment_cost
    table.add_row(
        source="total",
        n_requests=totals["n_requests"],
        total_access_cost=totals["access"],
        total_adjustment_cost=totals["adjustment"],
        total_cost=totals["access"] + totals["adjustment"],
    )
    return table


def _chunk_size(config: RunConfig) -> int:
    return DEFAULT_CHUNK_SIZE if config.chunk_size is None else config.chunk_size


def _seeded_trial_payloads(
    algorithms: Sequence[AlgorithmSpec],
    n_nodes: int,
    config: RunConfig,
    workloads: Sequence[WorkloadSpec],
) -> List[TrialPayload]:
    """Build the (trial, algorithm) payloads over one workload spec per trial.

    Trial-major order.  Seeds depend only on the trial index (placement
    ``base_seed + 10_000 + trial``, algorithm ``base_seed + 20_000 +
    trial``), so payloads and results are independent of where and in which
    order they execute.  All algorithms of a trial serve the same stream;
    with several algorithms the source is ``shared`` so each worker
    generates it once.  When :data:`repro.resilience.faults.FAULT_SPEC_ENV`
    is set, the requested fault spec is stamped onto every payload (the CI
    fault smoke's injection path).
    """
    chunk = _chunk_size(config)
    fault = fault_spec_from_env()
    payloads: List[TrialPayload] = []
    for trial, workload in enumerate(workloads):
        universe = workload.get("n_elements", n_nodes)
        if universe != n_nodes:
            raise ExperimentError(
                f"workload universe {universe} does not match tree size {n_nodes}"
            )
        source = SpecSource(
            workload, config.n_requests, chunk, shared=len(algorithms) > 1
        )
        for algorithm in algorithms:
            payloads.append(
                TrialPayload(
                    algorithm=algorithm,
                    source=source,
                    n_nodes=n_nodes,
                    placement_seed=config.base_seed + 10_000 + trial,
                    algorithm_seed=config.base_seed + 20_000 + trial,
                    keep_records=config.keep_records,
                    trial=trial,
                    fault=fault,
                )
            )
    return payloads


def _collect(
    names: Sequence[str],
    payloads: Sequence[TrialPayload],
    results: Sequence[RunResult],
) -> Dict[str, List[TrialOutcome]]:
    """Regroup ordered results into the per-algorithm outcome map."""
    outcomes: Dict[str, List[TrialOutcome]] = {name: [] for name in names}
    for payload, result in zip(payloads, results):
        outcomes[payload.algorithm_name].append(
            TrialOutcome(
                algorithm=payload.algorithm_name, trial=payload.trial, result=result
            )
        )
    return outcomes


def _summary_row(summary: AggregatedOutcome) -> Dict[str, object]:
    """One algorithm's :data:`TRIAL_TABLE_COLUMNS` row."""
    return {
        "algorithm": summary.algorithm,
        "mean_access_cost": summary.mean_access_cost,
        "mean_adjustment_cost": summary.mean_adjustment_cost,
        "mean_total_cost": summary.mean_total_cost,
        "n_trials": summary.n_trials,
    }


def build_trial_payloads(plan: TrialPlan) -> List[TrialPayload]:
    """Build a trial plan's payloads; trial ``i`` serves the template seeded
    ``base_seed + i``."""
    config = plan.config
    workloads = [
        plan.workload.with_seed(config.base_seed + trial)
        for trial in range(config.n_trials)
    ]
    return _seeded_trial_payloads(plan.algorithms, plan.n_nodes, config, workloads)


def _fold_trial_plan(
    plan: TrialPlan, key: str, payloads: List[TrialPayload], results: List[RunResult]
) -> StageResult:
    names = plan.algorithm_names()
    outcomes = _collect(names, payloads, results)
    aggregated = aggregate(outcomes)
    table = ResultTable(name=plan.name, columns=list(TRIAL_TABLE_COLUMNS))
    for name in names:
        table.add_row(**_summary_row(aggregated[name]))
    return StageResult(
        key=key,
        plan=plan,
        result=table,
        table=table,
        aggregated=aggregated,
        outcomes=outcomes,
    )


def build_sweep_payloads(plan: SweepPlan) -> List[TrialPayload]:
    """Build the flat payload list of a sweep: point-major, then as a trial plan.

    A point's workload is the template with the point's bound parameters
    replaced; a point's ``n_nodes`` entry overrides the plan's tree size.
    """
    config = plan.config
    bind = plan.bind_dict()
    base_params = plan.workload.param_dict()
    payloads: List[TrialPayload] = []
    for point in plan.point_dicts():
        n_nodes = int(point.get("n_nodes", plan.n_nodes or 0))
        if n_nodes <= 0:
            raise ExperimentError(
                f"sweep point {point} has no tree size and no default was given"
            )
        params = dict(base_params)
        for point_key, value in point.items():
            if point_key in bind:
                params[bind[point_key]] = value
        workloads = [
            WorkloadSpec.create(plan.workload.kind, seed=config.base_seed + trial, **params)
            for trial in range(config.n_trials)
        ]
        payloads.extend(
            _seeded_trial_payloads(plan.algorithms, n_nodes, config, workloads)
        )
    return payloads


def _fold_sweep_plan(
    plan: SweepPlan, key: str, payloads: List[TrialPayload], results: List[RunResult]
) -> StageResult:
    points = plan.point_dicts()
    point_columns: List[str] = []
    for point in points:
        point_columns.extend(column for column in point if column not in point_columns)
    table = ResultTable(
        name=plan.name, columns=point_columns + list(TRIAL_TABLE_COLUMNS)
    )
    names = plan.algorithm_names()
    per_point = len(payloads) // len(points)
    for index, point in enumerate(points):
        cell = slice(index * per_point, (index + 1) * per_point)
        aggregated = aggregate(_collect(names, payloads[cell], results[cell]))
        for name in names:
            row = {column: point.get(column) for column in point_columns}
            row.update(_summary_row(aggregated[name]))
            table.add_row(**row)
    return StageResult(key=key, plan=plan, result=table, table=table)


def _network_payload(
    algorithm: AlgorithmSpec,
    traffic: TrafficSpec,
    config: RunConfig,
    trial: int,
    metadata: Optional[Dict[str, object]] = None,
) -> TrialPayload:
    """One network trial: traffic re-seeded with ``base_seed + trial``, network
    base seed ``base_seed + 10_000 + trial * NETWORK_TRIAL_SEED_STRIDE``."""
    return TrialPayload(
        algorithm=algorithm,
        source=TrafficSource(
            traffic=traffic.with_seed(config.base_seed + trial),
            requests_per_source=config.n_requests,
            chunk_size=_chunk_size(config),
        ),
        n_nodes=traffic.n_nodes,
        placement_seed=config.base_seed + 10_000 + trial * NETWORK_TRIAL_SEED_STRIDE,
        algorithm_seed=None,
        keep_records=config.keep_records,
        trial=trial,
        metadata=metadata or {},
    )


def build_network_payloads(plan: NetworkPlan) -> List[TrialPayload]:
    """Build one spec-only payload per trial of a network plan.

    Trial ``i`` ships the traffic template re-seeded with ``base_seed + i``
    (stamping the interleaving and every per-source workload seed, see
    :meth:`~repro.network.traffic.TrafficSpec.with_seed`) and the network
    base seed ``base_seed + 10_000 + i * NETWORK_TRIAL_SEED_STRIDE`` in the
    payload's ``placement_seed`` slot — a trial-index-only derivation like
    the single-source plans', with the stride keeping the per-source seed
    windows of different trials disjoint.  Nothing is generated here: the
    parent process never holds a trace.
    """
    return [
        _network_payload(plan.algorithm, plan.traffic, plan.config, trial)
        for trial in range(plan.config.n_trials)
    ]


def _mean_costs(results: Sequence[RunResult]) -> Dict[str, float]:
    """Mean per-request access/adjustment/total cost over ``results``."""
    return {
        field: summarise_values(
            [getattr(result, f"average_{field}_cost") for result in results]
        )["mean"]
        for field in ("access", "adjustment", "total")
    }


def _fold_network_plan(
    plan: NetworkPlan, key: str, payloads: List[TrialPayload], results: List[RunResult]
) -> StageResult:
    table = ResultTable(name=plan.name, columns=list(NETWORK_TABLE_COLUMNS))
    n_trials = len(results)
    per_trial_columns = [result.metadata["per_source"] for result in results]
    sources = per_trial_columns[0]["source"] if per_trial_columns else []
    for index, source in enumerate(sources):
        requests = int(per_trial_columns[0]["n_requests"][index])
        means = {
            column: summarise_values(
                [
                    trial_columns[column][index] / max(1, trial_columns["n_requests"][index])
                    for trial_columns in per_trial_columns
                ]
            )["mean"]
            for column in ("total_access_cost", "total_adjustment_cost", "total_cost")
        }
        table.add_row(
            source=int(source),
            n_requests=requests,
            mean_access_cost=means["total_access_cost"],
            mean_adjustment_cost=means["total_adjustment_cost"],
            mean_total_cost=means["total_cost"],
            n_trials=n_trials,
        )
    means = _mean_costs(results)
    table.add_row(
        source="total",
        n_requests=results[0].n_requests if results else 0,
        mean_access_cost=means["access"],
        mean_adjustment_cost=means["adjustment"],
        mean_total_cost=means["total"],
        n_trials=n_trials,
    )
    return StageResult(key=key, plan=plan, result=table, table=table)


def build_traffic_sweep_payloads(plan: TrafficSweepPlan) -> List[TrialPayload]:
    """Build the flat payload list of a traffic sweep, in canonical order.

    Order is (point, algorithm, trial) — point-major so the fold can regroup
    by position.  Every payload of a trial ships the *same* re-seeded
    traffic (seeds derive from the trial index alone, exactly like
    :func:`build_network_payloads`), so the comparison across algorithms is
    never confounded by traffic noise.
    """
    config = plan.config
    payloads: List[TrialPayload] = []
    for point_index, point in enumerate(plan.point_dicts()):
        bound = plan.bound_traffic(point)
        for algorithm in plan.algorithms:
            for trial in range(config.n_trials):
                payloads.append(
                    _network_payload(
                        algorithm, bound, config, trial, {"point": point_index}
                    )
                )
    return payloads


def _fold_traffic_sweep_plan(
    plan: TrafficSweepPlan,
    key: str,
    payloads: List[TrialPayload],
    results: List[RunResult],
) -> StageResult:
    points = plan.point_dicts()
    point_columns = sorted({key for point in points for key in point})
    # a point may legitimately bind a key named "n_sources"; the fixed
    # column then reports the same bound value, so the point key wins
    fixed_columns = [
        column
        for column in (
            "algorithm",
            "n_sources",
            "mean_access_cost",
            "mean_adjustment_cost",
            "mean_total_cost",
            "n_trials",
        )
        if column not in point_columns
    ]
    table = ResultTable(name=plan.name, columns=point_columns + fixed_columns)
    n_trials = plan.config.n_trials
    cursor = 0
    for point in points:
        bound = plan.bound_traffic(point)
        for name in plan.algorithm_names():
            means = _mean_costs(results[cursor : cursor + n_trials])
            cursor += n_trials
            row = {column: point.get(column) for column in point_columns}
            row.update(
                algorithm=name,
                n_sources=len(bound.sources),
                mean_access_cost=means["access"],
                mean_adjustment_cost=means["adjustment"],
                mean_total_cost=means["total"],
                n_trials=n_trials,
            )
            table.add_row(**{column: row[column] for column in table.columns})
    return StageResult(key=key, plan=plan, result=table, table=table)


#: Leaf plan type -> (payload builder, fold of its result slice).
_LEAVES = {
    TrialPlan: (build_trial_payloads, _fold_trial_plan),
    SweepPlan: (build_sweep_payloads, _fold_sweep_plan),
    NetworkPlan: (build_network_payloads, _fold_network_plan),
    TrafficSweepPlan: (build_traffic_sweep_payloads, _fold_traffic_sweep_plan),
}


@register_assembler("traffic_sweep")
def _assemble_traffic_sweep(plan: ExperimentPlan, stages: List[StageResult]) -> object:
    """Merge traffic-sweep stage tables into one labelled comparison.

    The sweep twin of ``trace_costs``: every stage must be a
    :class:`~repro.plans.model.TrafficSweepPlan` and all stages must sweep
    the same point keys; the output carries one row per (stage, point,
    algorithm), labelled with the stage key.
    """
    if not stages:
        raise PlanError(
            f"assembler 'traffic_sweep' needs at least one traffic-sweep "
            f"stage, plan {plan.name!r} has none"
        )
    columns = None
    table = None
    for stage in stages:
        if not isinstance(stage.plan, TrafficSweepPlan) or stage.table is None:
            raise PlanError(
                f"assembler 'traffic_sweep' expects traffic-sweep stages, "
                f"stage {stage.key!r} of plan {plan.name!r} is "
                f"{type(stage.plan).__name__}"
            )
        if columns is None:
            columns = list(stage.table.columns)
            table = ResultTable(name=plan.name, columns=["scenario"] + columns)
        elif list(stage.table.columns) != columns:
            raise PlanError(
                f"assembler 'traffic_sweep': stage {stage.key!r} sweeps "
                f"columns {stage.table.columns}, expected {columns}"
            )
        for row in stage.table.rows:
            table.add_row(scenario=stage.key, **row)
    return table


#: The :class:`~repro.plans.model.RunConfig` fields a fan-out pass takes.
#: Payloads whose stage configs agree on all of them share one pass.
FANOUT_FIELDS = ("n_jobs", "worker_timeout", "max_retries", "cache_dir", "executor")

#: A compiled stage: maps the plan's full result list to its StageResult.
_Fold = Callable[[List[RunResult]], StageResult]


class _FlatPayloads:
    """The flat payload list of one plan tree, each payload with its settings."""

    def __init__(self) -> None:
        self.payloads: List[TrialPayload] = []
        self._configs: List[RunConfig] = []

    def add(self, payloads: List[TrialPayload], config: RunConfig) -> slice:
        """Append one stage's payloads; return the stage's slice."""
        start = len(self.payloads)
        self.payloads.extend(payloads)
        self._configs.extend([config] * len(payloads))
        return slice(start, len(self.payloads))

    def execute(self) -> List[RunResult]:
        """Run every payload: one fan-out pass per distinct settings tuple."""
        groups: Dict[tuple, List[int]] = {}
        for index, config in enumerate(self._configs):
            settings = tuple(getattr(config, name) for name in FANOUT_FIELDS)
            groups.setdefault(settings, []).append(index)
        results: List[Optional[RunResult]] = [None] * len(self.payloads)
        for indices in groups.values():
            config = self._configs[indices[0]]
            fresh = execute_payloads(
                [self.payloads[index] for index in indices],
                config.n_jobs,
                worker_timeout=config.worker_timeout,
                retry=RetryPolicy.for_config(config),
                cache_dir=config.cache_dir,
                executor=config.executor,
            )
            for index, result in zip(indices, fresh):
                results[index] = result
        return results  # type: ignore[return-value]


def _compile(plan: Plan, key: str, flat: _FlatPayloads) -> _Fold:
    """Append ``plan``'s payloads to ``flat``; return the fold of its stage."""
    if isinstance(plan, ExperimentPlan):
        return _compile_experiment(plan, key, flat)
    leaf = _LEAVES.get(type(plan))
    if leaf is None:
        raise PlanError(f"not a plan object: {plan!r}")
    build, fold = leaf
    payloads = build(plan)
    span = flat.add(payloads, plan.config)
    return lambda results: fold(plan, key, payloads, results[span])


def _compile_experiment(plan: ExperimentPlan, key: str, flat: _FlatPayloads) -> _Fold:
    stages = [_compile(sub, stage_key, flat) for stage_key, sub in plan.stages]
    assemble, build = _assembler(plan.assembler)
    payloads = build(plan) if build is not None else None
    span = flat.add(payloads, plan.config) if payloads is not None else None

    def fold(results: List[RunResult]) -> StageResult:
        staged = [stage(results) for stage in stages]
        if span is None:
            result = assemble(plan, staged)
        else:
            result = assemble(plan, staged, payloads, results[span])
        table = result if isinstance(result, ResultTable) else None
        return StageResult(key=key, plan=plan, result=result, table=table)

    return fold


def build_payloads(plan: Plan) -> List[TrialPayload]:
    """Return the flat payload list ``plan`` compiles to, in execution order.

    Stages contribute their payloads in stage order; an experiment's own
    payloads (assemblers registered with a payload builder) follow its
    stages'.  This is exactly the list :func:`run` fans out.
    """
    flat = _FlatPayloads()
    _compile(plan, "", flat)
    return flat.payloads


#: Stats of the most recent :func:`run` call in this process (see
#: :func:`last_run_stats`).
_last_stats: Optional[ResilienceStats] = None


def last_run_stats() -> Optional[ResilienceStats]:
    """Return the resilience counters of the most recent :func:`run` call.

    ``None`` until the first plan run of the process.  The counters —
    payloads executed, cache hits, checkpoint writes, retries, pool rebuilds,
    degradation — are what resume tests and campaign logs introspect:
    "re-running with ``resume=True`` executed only the missing trials" is an
    assertion on ``last_run_stats().executed``.  The counters are frozen when
    the run returns, so later runs never move them.
    """
    return _last_stats


def _plan_uses_cache(plan: Plan) -> bool:
    """True when any stage config of ``plan`` names a ``cache_dir``."""
    if isinstance(plan, (TrialPlan, SweepPlan, NetworkPlan, TrafficSweepPlan)):
        return plan.config.cache_dir is not None
    if plan.config is not None and plan.config.cache_dir is not None:
        return True
    return any(_plan_uses_cache(sub) for _key, sub in plan.stages)


def run(
    plan: Plan,
    *,
    cache: Optional[Union[ResultStore, str, Path]] = None,
    resume: bool = False,
    executor: Optional[str] = None,
) -> object:
    """Execute ``plan`` and return its result.

    The one public entrypoint of the declarative layer (``repro.run``):

    * a :class:`TrialPlan` returns a :class:`~repro.sim.results.ResultTable`
      with one row per algorithm (mean per-request costs over the trials);
    * a :class:`SweepPlan` returns the sweep's table (one row per point ×
      algorithm, mean per-request costs over the trials);
    * a :class:`NetworkPlan` returns a per-source route-cost table (one row
      per source plus a ``"total"`` aggregate row, per-request means over
      the trials), streamed through spec-shipped multi-source payloads;
    * a :class:`TrafficSweepPlan` returns a table with one row per point ×
      algorithm (aggregate per-request means over the trials), every point's
      traffic bound from the template at payload-build time;
    * an :class:`ExperimentPlan` returns whatever its assembler produces —
      a table, a ``{stage key: result}`` dict (q1/q4/q5), or the Q4
      ``(histogram, summary)`` pair.

    ``cache`` attaches a checkpoint store to the whole run — a
    :class:`~repro.resilience.ResultStore` or a directory path — overriding
    any per-stage ``config.cache_dir``; when a store is active every
    completed trial is persisted as it finishes (crash-safe, atomic).  With
    ``resume=True``, trials whose verified entry already exists are served
    from the store instead of re-executed; results are bit-identical either
    way because every trial is a pure function of its payload content.
    Corrupted or truncated entries are detected, logged and re-run — never
    fatal.  :func:`last_run_stats` exposes the counters afterwards.

    The whole plan tree compiles to one payload list before anything runs,
    and that list fans out in one pass per distinct set of
    :data:`FANOUT_FIELDS` settings among its stages.

    ``executor`` dispatches every stage's payloads to a remote worker fleet
    (``"tcp://host:port[,host:port...]"``; see :mod:`repro.dist`) instead of
    the local process pool, overriding any per-stage ``config.executor``.
    Results are byte-identical to local execution — the fleet degrades to
    the local pool, then to in-process serial, if workers are lost.
    """
    global _last_stats
    if executor is not None:
        plan = plan_with_overrides(plan, executor=executor)
    store: Optional[ResultStore] = None
    if cache is not None:
        store = cache if isinstance(cache, ResultStore) else ResultStore(cache)
    if resume and store is None and not _plan_uses_cache(plan):
        raise PlanError(
            "resume=True needs a checkpoint store: pass cache=... or set "
            "cache_dir on the plan's RunConfig"
        )
    flat = _FlatPayloads()
    fold = _compile(plan, "", flat)
    context = ExecutionContext(store=store, resume=resume)
    with activate_context(context):
        result = fold(flat.execute()).result
    _last_stats = context.stats.frozen()
    return result
