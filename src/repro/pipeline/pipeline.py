"""The staged synthesis pipeline: an ordered run of pluggable stages.

``Pipeline([...]).run(context)`` drives each stage over the shared
:class:`~repro.pipeline.context.SynthesisContext` and times it.

:func:`build_default_pipeline` assembles the paper's top-down flow —
bind -> schedule -> place (-> route -> verify-by-sim) — from the same
knobs :class:`~repro.synthesis.flow.SynthesisFlow` exposes; the flow is
now a thin facade over exactly this construction.
"""

from __future__ import annotations

import random
import time
from collections.abc import Sequence

from repro.pipeline.context import SynthesisContext
from repro.placement.sa_placer import SimulatedAnnealingPlacer
from repro.pipeline.stages import (
    BindStage,
    PlaceStage,
    RouteStage,
    ScheduleStage,
    SimVerifyStage,
    Stage,
)
from repro.routing.synthesis import RoutingSynthesizer
from repro.synthesis.binder import ResourceBinder
from repro.util.errors import PipelineError
from repro.util.rng import ensure_rng, spawn_rng


class Pipeline:
    """An ordered, named sequence of synthesis stages."""

    def __init__(self, stages: Sequence[Stage]) -> None:
        stages = list(stages)
        if not stages:
            raise PipelineError("a pipeline needs at least one stage")
        names = [stage.name for stage in stages]
        duplicates = {n for n in names if names.count(n) > 1}
        if duplicates:
            raise PipelineError(
                f"duplicate stage names in pipeline: {sorted(duplicates)}"
            )
        self._stages = stages

    @property
    def stage_names(self) -> tuple[str, ...]:
        return tuple(stage.name for stage in self._stages)

    def run(self, context: SynthesisContext) -> SynthesisContext:
        """Execute every stage in order; returns the same *context*."""
        for stage in self._stages:
            t0 = time.perf_counter()
            stage.run(context)
            context.stage_timings[stage.name] = time.perf_counter() - t0
        return context

    def __len__(self) -> int:
        return len(self._stages)

    def __str__(self) -> str:
        return f"Pipeline({' -> '.join(self.stage_names)})"


def build_default_pipeline(
    placer=None,
    max_concurrent_ops: int | None = 3,
    cell_capacity: int | None = None,
    max_parked: int | None = None,
    seed: int | random.Random | None = None,
    route: bool = False,
    routing_synthesizer: RoutingSynthesizer | None = None,
    verify: bool = False,
    binder: ResourceBinder | None = None,
) -> Pipeline:
    """The paper's top-down flow as a pipeline.

    Mirrors ``SynthesisFlow``'s constructor knob for knob (the facade
    delegates here), plus ``verify=True`` to append the droplet-level
    replay stage the flow never had. *binder* defaults to the standard
    module library's.
    """
    rng = ensure_rng(seed)
    if placer is None:
        placer = build_default_placer(rng)
    if binder is None:
        binder = ResourceBinder()
    stages: list[Stage] = [
        BindStage(binder),
        ScheduleStage(
            max_concurrent_ops=max_concurrent_ops,
            cell_capacity=cell_capacity,
            max_parked=max_parked,
        ),
        PlaceStage(placer),
    ]
    if route:
        stages.append(RouteStage(routing_synthesizer))
    if verify:
        stages.append(SimVerifyStage())
    return Pipeline(stages)


def build_default_placer(rng: random.Random):
    """The flow's default placer, seeded from the flow generator.

    Factored out so the facade, the pipeline builder, and the portfolio
    executor derive the placer stream identically — one ``spawn_rng``
    draw from the flow RNG — keeping a fixed seed bit-for-bit
    reproducible across all entry points.
    """
    return SimulatedAnnealingPlacer(seed=spawn_rng(rng))
