"""The shared state a synthesis pipeline operates on.

A :class:`SynthesisContext` carries the problem description (sequencing
graph, explicit binding, known-faulty cells) and accumulates stage
products (binding, schedule, placement, FTI report, routing plan,
simulation report) as the pipeline advances. It is a plain data holder
whose every field is picklable.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.assay.graph import SequencingGraph
from repro.geometry import Point
from repro.util.errors import PipelineError

if TYPE_CHECKING:
    from repro.fault.fti import FTIReport
    from repro.placement.chip import Chip
    from repro.placement.sa_placer import PlacementResult
    from repro.routing.plan import RoutingPlan
    from repro.sim.engine import SimulationReport
    from repro.synthesis.binder import Binding
    from repro.synthesis.flow import SynthesisResult
    from repro.synthesis.schedule import Schedule


def normalize_faulty_cells(
    cells: Iterable[Point | tuple[int, int]],
) -> tuple[Point, ...]:
    """Canonicalize faulty-cell input to a tuple of :class:`Point`."""
    return tuple(Point(*c) for c in cells)


@dataclass
class SynthesisContext:
    """Everything a pipeline reads and writes while synthesizing one assay."""

    # -- problem description --------------------------------------------------
    graph: SequencingGraph
    explicit_binding: Mapping[str, str] | None = None
    #: Known-defective electrodes (placement coordinates) the routing
    #: stage must avoid. Only fault-dependent stages consume these.
    faulty_cells: tuple[Point, ...] = ()

    # -- stage products -------------------------------------------------------
    binding: Binding | None = None
    schedule: Schedule | None = None
    placement_result: PlacementResult | None = None
    chip: Chip | None = None
    fti_report: FTIReport | None = None
    routing_plan: RoutingPlan | None = None
    sim_report: SimulationReport | None = None

    #: Wall-clock seconds per completed stage, in execution order.
    stage_timings: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # Canonicalize on every construction path, so stages can rely
        # on Point coordinates.
        self.faulty_cells = normalize_faulty_cells(self.faulty_cells)

    @property
    def runtime_s(self) -> float:
        """Total synthesis time across all completed stages."""
        return sum(self.stage_timings.values())

    def require(self, *fields: str) -> None:
        """Raise :class:`PipelineError` unless every named product exists.

        Stages call this on entry so a misassembled pipeline fails with
        the missing prerequisite's name instead of an ``AttributeError``
        deep inside an algorithm.
        """
        missing = [name for name in fields if getattr(self, name) is None]
        if missing:
            raise PipelineError(
                f"stage prerequisites missing from context: {', '.join(missing)} "
                "(is the pipeline missing an upstream stage?)"
            )

    def result(self) -> SynthesisResult:
        """Bundle the accumulated products into a :class:`SynthesisResult`.

        Requires the mandatory stages (bind, schedule, place) to have
        run; the FTI report, routing plan, and simulation report stay
        ``None`` when their stages were not part of the pipeline.
        """
        from repro.synthesis.flow import SynthesisResult

        self.require("binding", "schedule", "placement_result", "chip")
        assert self.binding and self.schedule and self.placement_result and self.chip
        return SynthesisResult(
            graph=self.graph,
            binding=self.binding,
            schedule=self.schedule,
            placement_result=self.placement_result,
            fti_report=self.fti_report,
            runtime_s=self.runtime_s,
            chip=self.chip,
            routing_plan=self.routing_plan,
            sim_report=self.sim_report,
            stage_timings=dict(self.stage_timings),
        )
