"""Pluggable pipeline stages: bind, schedule, place, route, and
verify-by-sim.

Each stage is a small configured transform over a
:class:`~repro.pipeline.context.SynthesisContext`: it reads the
products of upstream stages, computes its own, and writes them back.
The :class:`Stage` protocol is structural — anything with a ``name``
and a ``run(context)`` method slots into a
:class:`~repro.pipeline.pipeline.Pipeline`, so experiments can insert
custom analyses (or replace a stage wholesale) without touching the
flow.
"""

from __future__ import annotations

import random
from typing import Protocol, runtime_checkable

from repro.fault.fti import compute_fti
from repro.pipeline.context import SynthesisContext
from repro.placement.chip import Chip
from repro.placement.sa_placer import SimulatedAnnealingPlacer
from repro.routing.synthesis import RoutingSynthesizer
from repro.sim.engine import BiochipSimulator
from repro.synthesis.binder import ResourceBinder
from repro.synthesis.scheduler import integerized, list_schedule


@runtime_checkable
class Stage(Protocol):
    """Structural interface every pipeline stage satisfies."""

    #: Unique name within a pipeline; keys the per-stage timings.
    name: str

    def run(self, context: SynthesisContext) -> None:
        """Consume upstream products from *context* and write our own."""
        ...


class BindStage:
    """Behavioral -> architectural: map operations to module specs."""

    name = "bind"

    def __init__(self, binder: ResourceBinder | None = None) -> None:
        self.binder = binder if binder is not None else ResourceBinder()

    def run(self, context: SynthesisContext) -> None:
        """Bind by the fastest module each operation allows."""
        context.binding = self.binder.bind(
            context.graph, explicit=context.explicit_binding
        )


class ScheduleStage:
    """Resource-constrained list scheduling on the bound graph."""

    name = "schedule"

    def __init__(
        self,
        max_concurrent_ops: int | None = 3,
        cell_capacity: int | None = None,
        max_parked: int | None = None,
    ) -> None:
        self.max_concurrent_ops = max_concurrent_ops
        self.cell_capacity = cell_capacity
        self.max_parked = max_parked

    def run(self, context: SynthesisContext) -> None:
        context.require("binding")
        assert context.binding is not None
        footprints = {
            op_id: spec.footprint_area for op_id, spec in context.binding.items()
        }
        context.schedule = integerized(
            list_schedule(
                context.graph,
                context.binding.durations(),
                max_concurrent_ops=self.max_concurrent_ops,
                cell_capacity=self.cell_capacity,
                footprints=footprints,
                max_parked=self.max_parked,
            )
        )


class PlaceStage:
    """Geometry-level synthesis: module placement plus FTI analysis."""

    name = "place"

    def __init__(
        self,
        placer=None,
        compute_fti_report: bool = True,
        seed: int | random.Random | None = None,
    ) -> None:
        self.placer = (
            placer if placer is not None else SimulatedAnnealingPlacer(seed=seed)
        )
        self.compute_fti_report = compute_fti_report

    def run(self, context: SynthesisContext) -> None:
        context.require("binding", "schedule")
        placed = self.placer.place(context.schedule, context.binding)
        # TwoStagePlacer returns a TwoStageResult; unwrap uniformly.
        placement_result = placed.stage2 if hasattr(placed, "stage2") else placed
        context.placement_result = placement_result
        context.chip = Chip.of(placement_result.placement)
        if self.compute_fti_report:
            if hasattr(placed, "fti_stage2"):
                context.fti_report = placed.fti_stage2
            else:
                context.fti_report = compute_fti(placement_result.placement)


class RouteStage:
    """Concurrent droplet-routing synthesis over the placed assay."""

    name = "route"

    def __init__(self, synthesizer: RoutingSynthesizer | None = None) -> None:
        self.synthesizer = (
            synthesizer if synthesizer is not None else RoutingSynthesizer()
        )

    def run(self, context: SynthesisContext) -> None:
        context.require("schedule", "placement_result", "chip")
        assert context.placement_result is not None
        context.routing_plan = self.synthesizer.synthesize(
            context.graph, context.schedule, context.placement_result.placement,
            context.chip, faulty_cells=context.faulty_cells,
        )


class SimVerifyStage:
    """Verify the synthesized configuration by droplet-level replay.

    Runs the droplet-level simulator over the placed (and, when
    present, routed) assay. The context's ``faulty_cells`` are injected
    as time-zero faults — translated from placement to chip cells — so
    a defect scenario is genuinely exercised (module health checks,
    reconfiguration, fault-avoiding reroutes), not just threaded
    through. An unroutable corner case surfaces as a failed
    report instead of raising.
    """

    name = "verify"

    def run(self, context: SynthesisContext) -> None:
        context.require("binding", "schedule", "placement_result", "chip")
        assert context.placement_result is not None and context.chip is not None
        chip = context.chip
        simulator = BiochipSimulator(
            context.graph, context.schedule, context.binding,
            context.placement_result.placement, chip, routing_plan=context.routing_plan,
        )
        faults = [(0.0, chip.cell(p)) for p in context.faulty_cells]
        context.sim_report = simulator.run(faults=faults)
