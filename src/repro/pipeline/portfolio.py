"""Best-of-N portfolio search over seeded pipeline instances.

Simulated-annealing placement is stochastic: different seeds land on
different area/FTI/makespan trade-offs. The classic remedy is a
*portfolio* — run the same pipeline N times with independent seeds and
keep the winner under a chosen objective. This module does that on the
supervised execution layer (:class:`repro.exec.SupervisedPool`) so the
N instances use every available core and survive worker crashes or
deadline overruns, while staying bit-for-bit deterministic:

* instance seeds are spawned from the flow seed up front
  (:func:`instance_seeds`) — instance *i*'s stream never depends on
  which worker runs it or how many workers exist;
* results are collected in instance order and ties broken by the lowest
  instance index, so the selected winner is identical for any
  ``jobs`` count (``jobs=1`` runs in-process, no pool at all).

The first instance reuses the flow seed itself, so a best-of-1
portfolio reproduces the plain ``SynthesisFlow(seed=...)`` facade
exactly.
"""

from __future__ import annotations

import time
from collections.abc import Mapping
from dataclasses import dataclass, field

from repro.assay.graph import SequencingGraph
from repro.exec import STATUS_INFEASIBLE, SupervisedPool
from repro.placement.annealer import AnnealingParams
from repro.synthesis.flow import SynthesisFlow, SynthesisResult
from repro.util.errors import PipelineError, WorkerCrashError, WorkerTimeoutError
from repro.util.rng import ensure_rng, spawn_rng, spawn_seed

#: Selectable objectives: name -> (extractor, sense). ``min`` objectives
#: prefer smaller values; ``max`` objectives larger. Extractors return
#: ``None`` when the pipeline did not produce the metric, which is a
#: configuration error (e.g. objective "route-steps" without routing).
OBJECTIVES: Mapping[str, tuple] = {
    "area": (lambda r: r.area_cells, "min"),
    "makespan": (lambda r: r.makespan, "min"),
    "fti": (lambda r: r.fti, "max"),
    "route-steps": (lambda r: r.total_route_steps, "min"),
}


def objective_value(result: SynthesisResult, objective: str) -> float:
    """The raw (sense-unadjusted) objective metric of *result*."""
    try:
        extract, _ = OBJECTIVES[objective]
    except KeyError:
        raise PipelineError(
            f"unknown objective {objective!r}; choose from {sorted(OBJECTIVES)}"
        ) from None
    value = extract(result)
    if value is None:
        raise PipelineError(
            f"objective {objective!r} is undefined for this pipeline "
            "(did you disable the stage that produces it?)"
        )
    return float(value)


def _sort_key(value: float, objective: str) -> float:
    _, sense = OBJECTIVES[objective]
    return value if sense == "min" else -value


def instance_seeds(seed: int, n: int) -> list[int]:
    """Deterministic per-instance seeds for a best-of-*n* portfolio.

    Instance 0 runs under the flow seed itself (so ``n=1`` reproduces
    the serial facade); instances 1..n-1 get independent child seeds
    spawned from it. The list depends only on ``(seed, n)`` — never on
    scheduling — which is what makes the portfolio winner stable across
    worker counts.
    """
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise TypeError(f"portfolio seed must be an int, got {type(seed).__name__}")
    if n < 1:
        raise ValueError(f"portfolio size must be >= 1, got {n}")
    rng = ensure_rng(seed)
    return [seed] + [spawn_seed(rng) for _ in range(n - 1)]


@dataclass(frozen=True)
class PortfolioSpec:
    """A picklable recipe for one pipeline family.

    Everything a worker process needs to rebuild and run the pipeline:
    the problem (graph, explicit binding) and the algorithm knobs.
    ``build_flow(seed)`` turns it into a ready :class:`SynthesisFlow`,
    deriving the placer stream from the instance seed exactly the way
    the facade does.
    """

    graph: SequencingGraph
    explicit_binding: Mapping[str, str] | None = None
    #: Annealing preset for the placer; ``None`` keeps the flow default.
    annealing: AnnealingParams | None = None
    #: Enable the fault-aware two-stage placer at this beta.
    beta: float | None = None
    max_concurrent_ops: int | None = 3
    max_parked: int | None = None
    route: bool = False

    def build_flow(self, seed: int) -> SynthesisFlow:
        """A flow for one portfolio instance, fully seeded by *seed*."""
        rng = ensure_rng(seed)
        if self.beta is not None:
            from repro.placement.two_stage import TwoStagePlacer

            placer = TwoStagePlacer(
                beta=self.beta, stage1_params=self.annealing, seed=spawn_rng(rng)
            )
        elif self.annealing is not None:
            from repro.placement.sa_placer import SimulatedAnnealingPlacer

            placer = SimulatedAnnealingPlacer(
                params=self.annealing, seed=spawn_rng(rng)
            )
        else:
            # Mirror the flow's own default-placer derivation (one
            # spawn_rng draw) so a best-of-1 portfolio still reproduces
            # the facade bit-for-bit.
            from repro.pipeline.pipeline import build_default_placer

            placer = build_default_placer(rng)
        return SynthesisFlow(
            placer=placer,
            max_concurrent_ops=self.max_concurrent_ops,
            max_parked=self.max_parked,
            seed=rng,
            route=self.route,
        )

    def run_instance(self, seed: int) -> SynthesisResult:
        """Run one seeded pipeline instance to completion."""
        flow = self.build_flow(seed)
        return flow.run(self.graph, explicit_binding=self.explicit_binding)


def _run_instance(task: tuple[PortfolioSpec, int]) -> SynthesisResult:
    """Worker entry point — module level so it pickles."""
    spec, seed = task
    return spec.run_instance(seed)


@dataclass(frozen=True)
class InstanceOutcome:
    """One portfolio instance's seed, objective value, and full result."""

    index: int
    seed: int
    objective_value: float
    result: SynthesisResult

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "seed": self.seed,
            "objective_value": self.objective_value,
            "result": self.result.to_dict(),
        }


@dataclass
class PortfolioResult:
    """The full portfolio: every instance outcome plus the selection."""

    objective: str
    jobs: int
    wall_s: float
    outcomes: list[InstanceOutcome] = field(default_factory=list)
    winner_index: int = 0
    #: Structured :class:`~repro.exec.TaskOutcome` dicts for instances
    #: that produced no result (infeasible, timed out, crashed after
    #: retries). Empty on a healthy run.
    failures: list[dict] = field(default_factory=list)

    @property
    def winner(self) -> InstanceOutcome:
        return self.outcomes[self.winner_index]

    @property
    def winner_result(self) -> SynthesisResult:
        return self.winner.result

    def to_dict(self) -> dict:
        return {
            "objective": self.objective,
            "jobs": self.jobs,
            "wall_s": self.wall_s,
            "winner_index": self.winner_index,
            "instances": [o.to_dict() for o in self.outcomes],
            "failures": list(self.failures),
        }

    def table_rows(self) -> list[tuple]:
        """(index, seed, objective, makespan, area, FTI) rows for display."""
        rows = []
        for o in self.outcomes:
            marker = "*" if o.index == self.winner_index else ""
            r = o.result
            rows.append(
                (
                    f"{o.index}{marker}",
                    o.seed,
                    f"{o.objective_value:g}",
                    f"{r.makespan:g}",
                    r.area_cells,
                    f"{r.fti:.3f}" if r.fti is not None else "-",
                )
            )
        return rows


def run_portfolio(
    spec: PortfolioSpec,
    n: int = 4,
    seed: int = 7,
    objective: str = "area",
    jobs: int = 1,
    *,
    task_timeout: float | None = None,
    max_retries: int = 2,
    chaos=None,
) -> PortfolioResult:
    """Run a best-of-*n* portfolio and select the winner.

    ``jobs=1`` executes in-process (no pool); ``jobs>1`` fans instances
    out over a :class:`~repro.exec.SupervisedPool`. The outcome — every
    instance's metrics and the selected winner — is identical either
    way: a crashed or deadline-killed worker is retried with the same
    seed, and an instance that still fails after ``max_retries`` lands
    in ``PortfolioResult.failures`` instead of poisoning the rest. Only
    when *every* instance fails does the portfolio raise.
    """
    if objective not in OBJECTIVES:
        raise PipelineError(
            f"unknown objective {objective!r}; choose from {sorted(OBJECTIVES)}"
        )
    # Fail in milliseconds, not after N full pipeline runs, when the
    # spec cannot produce the selection metric.
    if objective == "route-steps" and not spec.route:
        raise PipelineError(
            "objective 'route-steps' needs the routing stage; "
            "build the PortfolioSpec with route=True"
        )
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    seeds = instance_seeds(seed, n)
    tasks = [(spec, s) for s in seeds]

    t0 = time.perf_counter()
    pool = SupervisedPool(
        jobs=jobs, task_timeout=task_timeout,
        max_retries=max_retries, chaos=chaos,
    )
    task_outcomes = pool.map(
        _run_instance, tasks, keys=[f"instance-{i}" for i in range(n)]
    )
    wall_s = time.perf_counter() - t0

    outcomes = []
    failures = []
    for i, out in enumerate(task_outcomes):
        if out.ok:
            outcomes.append(
                InstanceOutcome(
                    index=i,
                    seed=seeds[i],
                    objective_value=objective_value(out.value, objective),
                    result=out.value,
                )
            )
        else:
            failures.append(out.to_dict())
    if not outcomes:
        statuses = {f["status"] for f in failures}
        detail = "; ".join(
            f"{f['key']}: {f['status']} ({f['error']})" for f in failures
        )
        if statuses == {STATUS_INFEASIBLE}:
            raise PipelineError(f"all {n} portfolio instances infeasible: {detail}")
        exc = WorkerCrashError if "crashed" in statuses else WorkerTimeoutError
        raise exc(f"all {n} portfolio instances failed: {detail}")
    winner_index = min(
        range(len(outcomes)),
        key=lambda i: (_sort_key(outcomes[i].objective_value, objective), outcomes[i].index),
    )
    return PortfolioResult(
        objective=objective,
        jobs=jobs,
        wall_s=wall_s,
        outcomes=outcomes,
        winner_index=winner_index,
        failures=failures,
    )
