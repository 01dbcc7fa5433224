"""The staged synthesis pipeline: the paper's top-down order, fixed.

``Pipeline(bind, schedule, place, route, verify).run(context)`` drives
each present stage over the shared
:class:`~repro.pipeline.context.SynthesisContext` in that order and
times it.

:func:`build_default_pipeline` assembles the paper's top-down flow —
bind -> schedule -> place (-> route -> verify-by-sim) — from the same
knobs :class:`~repro.synthesis.flow.SynthesisFlow` exposes; the flow is
a thin facade over exactly this construction.
"""

from __future__ import annotations

import random
import time

from repro.pipeline.context import SynthesisContext
from repro.placement.sa_placer import SimulatedAnnealingPlacer
from repro.pipeline.stages import (
    BindStage,
    PlaceStage,
    RouteStage,
    ScheduleStage,
    SimVerifyStage,
)
from repro.routing.synthesis import RoutingSynthesizer
from repro.synthesis.binder import ResourceBinder
from repro.util.rng import ensure_rng, spawn_rng


class Pipeline:
    """The synthesis stages in the paper's order; *route* and *verify*
    are ``None`` when the pipeline stops before them."""

    def __init__(
        self,
        bind: BindStage,
        schedule: ScheduleStage,
        place: PlaceStage,
        route: RouteStage | None,
        verify: SimVerifyStage | None,
    ) -> None:
        self.bind = bind
        self.schedule = schedule
        self.place = place
        self.route = route
        self.verify = verify

    def run(self, context: SynthesisContext) -> SynthesisContext:
        """Execute every present stage in order; returns the same *context*."""
        for stage in (self.bind, self.schedule, self.place, self.route, self.verify):
            if stage is None:
                continue
            t0 = time.perf_counter()
            stage.run(context)
            context.stage_timings[stage.name] = time.perf_counter() - t0
        return context


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
    return Pipeline(
        BindStage(binder),
        ScheduleStage(
            max_concurrent_ops=max_concurrent_ops,
            cell_capacity=cell_capacity,
            max_parked=max_parked,
        ),
        PlaceStage(placer),
        RouteStage(routing_synthesizer) if route else None,
        SimVerifyStage() if verify else None,
    )


def build_default_placer(rng: random.Random):
    """The flow's default placer, seeded from the flow generator.

    Factored out so the facade, the pipeline builder, and the portfolio
    executor derive the placer stream identically — one ``spawn_rng``
    draw from the flow RNG — keeping a fixed seed bit-for-bit
    reproducible across all entry points.
    """
    return SimulatedAnnealingPlacer(seed=spawn_rng(rng))
