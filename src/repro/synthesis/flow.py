"""The top-down synthesis flow the paper's introduction envisages.

Behavioral model (sequencing graph) -> architectural-level synthesis
(resource binding + scheduling) -> geometry-level synthesis (module
placement, here with optional fault-tolerance refinement) -> optional
routing synthesis (concurrent droplet-routing plan, ``route=True``).
One call takes an assay from protocol description to a placed,
FTI-scored — and, when requested, fully routed — configuration.

``SynthesisFlow`` is a thin facade: it assembles the equivalent staged
:class:`~repro.pipeline.pipeline.Pipeline` (bind -> schedule -> place
[-> route]) and runs it over a
:class:`~repro.pipeline.context.SynthesisContext`. Callers who need
stage-level control — inserting custom stages, portfolio search,
prefix reuse across fault patterns — use :mod:`repro.pipeline`
directly; for a fixed seed both entry points produce identical results.
"""

from __future__ import annotations

import random
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.assay.graph import SequencingGraph
from repro.fault.fti import FTIReport
from repro.geometry import Point
from repro.modules.library import ModuleLibrary
from repro.placement.chip import Chip
from repro.placement.sa_placer import PlacementResult, SimulatedAnnealingPlacer
from repro.placement.two_stage import TwoStagePlacer
from repro.routing.plan import RoutingPlan
from repro.routing.synthesis import RoutingSynthesizer
from repro.synthesis.binder import Binding, ResourceBinder
from repro.synthesis.schedule import Schedule
from repro.util.rng import ensure_rng

if TYPE_CHECKING:
    from repro.sim.engine import SimulationReport


@dataclass
class SynthesisResult:
    """Everything the flow produced, stage by stage."""

    graph: SequencingGraph
    binding: Binding
    schedule: Schedule
    placement_result: PlacementResult
    fti_report: FTIReport | None
    runtime_s: float
    #: The array every later layer runs on; derived designs keep it.
    chip: Chip
    routing_plan: RoutingPlan | None = None
    #: Droplet-level replay report, when the pipeline's verify stage ran.
    sim_report: SimulationReport | None = None
    #: Wall-clock seconds per pipeline stage, in execution order.
    stage_timings: dict[str, float] = field(default_factory=dict)

    @property
    def makespan(self) -> float:
        """Assay completion time in seconds."""
        return self.schedule.makespan

    @property
    def area_cells(self) -> int:
        """Placed bounding-array area in cells."""
        return self.placement_result.area_cells

    @property
    def fti(self) -> float | None:
        """Fault tolerance index of the final placement, if computed."""
        return self.fti_report.fti if self.fti_report is not None else None

    @property
    def total_route_steps(self) -> int | None:
        """Total droplet actuation steps of the routing plan, if routed."""
        return None if self.routing_plan is None else self.routing_plan.total_route_steps

    @property
    def max_net_latency(self) -> int | None:
        """Worst single-net routing latency in steps, if routed."""
        return None if self.routing_plan is None else self.routing_plan.max_net_latency

    @property
    def routability(self) -> float | None:
        """Fraction of transport nets the router realized, if routed."""
        return None if self.routing_plan is None else self.routing_plan.routability

    def to_dict(self) -> dict:
        """JSON-safe summary of every stage's product.

        Only primitives, lists, and dicts — ``json.dumps`` accepts the
        result unchanged.
        """
        width, height = self.placement_result.array_dims
        return {
            "assay": self.graph.name,
            "operations": len(self.graph),
            "makespan_s": self.makespan,
            "array": [width, height],
            "area_cells": self.area_cells,
            "area_mm2": self.placement_result.area_mm2,
            "fti": self.fti,
            "runtime_s": self.runtime_s,
            "stage_timings": dict(self.stage_timings),
            "schedule": self.schedule.to_dict(),
            "placement": self.placement_result.to_dict(),
            "fti_report": (
                self.fti_report.to_dict() if self.fti_report is not None else None
            ),
            "routing": (
                self.routing_plan.to_dict() if self.routing_plan is not None else None
            ),
            "simulation": (
                self.sim_report.to_dict() if self.sim_report is not None else None
            ),
        }

    def summary(self) -> str:
        """One-paragraph human-readable report."""
        w, h = self.placement_result.array_dims
        lines = [
            f"assay: {self.graph.name} ({len(self.graph)} operations)",
            f"schedule: makespan {self.makespan:g} s, "
            f"peak concurrency {self.schedule.max_concurrency()}",
            f"placement: {w}x{h} = {self.area_cells} cells "
            f"({self.placement_result.area_mm2:.2f} mm^2)",
        ]
        if self.fti_report is not None:
            lines.append(
                f"fault tolerance: FTI {self.fti_report.fti:.4f} "
                f"({self.fti_report.fault_tolerance_number}/"
                f"{self.fti_report.cell_count} cells C-covered)"
            )
        if self.routing_plan is not None:
            lines.append(f"routing: {self.routing_plan.summary()}")
        if self.sim_report is not None:
            realized = self.sim_report.realized_makespan
            lines.append(
                f"simulation: completed, realized makespan {realized:g} s"
                if realized is not None
                else "simulation: FAILED"
            )
        return "\n".join(lines)


class SynthesisFlow:
    """One-call facade over the staged pipeline, with sensible defaults."""

    def __init__(
        self,
        library: ModuleLibrary | None = None,
        placer: SimulatedAnnealingPlacer | TwoStagePlacer | None = None,
        max_concurrent_ops: int | None = 3,
        cell_capacity: int | None = None,
        max_parked: int | None = None,
        seed: int | random.Random | None = None,
        route: bool = False,
    ) -> None:
        from repro.pipeline.pipeline import build_default_placer, build_default_pipeline

        # One explicit generator per flow instance: concurrent flows
        # must not share RNG state through the global random module.
        self.rng = ensure_rng(seed)
        self.binder = ResourceBinder(library)
        self.placer = placer if placer is not None else build_default_placer(self.rng)
        self.max_concurrent_ops = max_concurrent_ops
        self.cell_capacity = cell_capacity
        self.max_parked = max_parked
        self.route = route
        self.routing_synthesizer = RoutingSynthesizer()
        self.pipeline = build_default_pipeline(
            binder=self.binder,
            placer=self.placer,
            max_concurrent_ops=max_concurrent_ops,
            cell_capacity=cell_capacity,
            max_parked=max_parked,
            route=route,
            routing_synthesizer=self.routing_synthesizer,
        )

    def run(
        self,
        graph: SequencingGraph,
        explicit_binding: Mapping[str, str] | None = None,
        faulty_cells: Iterable[Point | tuple[int, int]] = (),
    ) -> SynthesisResult:
        """Synthesize *graph* end to end.

        *faulty_cells* are known-defective electrodes the routing stage
        must avoid (they only matter with ``route=True``).
        """
        from repro.pipeline.context import SynthesisContext, normalize_faulty_cells

        context = SynthesisContext(
            graph=graph,
            explicit_binding=explicit_binding,
            faulty_cells=normalize_faulty_cells(faulty_cells),
        )
        self.pipeline.run(context)
        return context.result()
