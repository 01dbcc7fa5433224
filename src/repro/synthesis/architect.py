"""Architectural design-space exploration over bindings and resources.

The paper's synthesis flow fixes one binding (Table 1) and one
schedule; a designer choosing between mixer geometries faces the
classic trade the module library encodes — bigger mixers are faster
(Paik et al.) but eat more cells. This module sweeps binding strategies
and concurrency limits, running the full bind -> schedule -> place
pipeline for each point, and reports the (makespan, area, FTI)
frontier so the designer can pick an operating point before committing
to geometry-level synthesis.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from repro.assay.graph import SequencingGraph
from repro.fault.fti import compute_fti
from repro.placement.annealer import AnnealingParams
from repro.placement.sa_placer import SimulatedAnnealingPlacer
from repro.synthesis.binder import ResourceBinder
from repro.synthesis.scheduler import integerized, list_schedule
from repro.util.rng import ensure_rng
from repro.util.tables import format_table


@dataclass(frozen=True)
class DesignPoint:
    """One explored (binding strategy, concurrency cap) configuration."""

    strategy: str
    max_concurrent_ops: int
    makespan_s: float
    area_cells: int
    area_mm2: float
    fti: float
    runtime_s: float

    def dominates(self, other: "DesignPoint") -> bool:
        """Pareto dominance on (makespan, area, -FTI): at least as good
        everywhere and strictly better somewhere."""
        le = (
            self.makespan_s <= other.makespan_s
            and self.area_cells <= other.area_cells
            and self.fti >= other.fti
        )
        lt = (
            self.makespan_s < other.makespan_s
            or self.area_cells < other.area_cells
            or self.fti > other.fti
        )
        return le and lt


@dataclass(frozen=True)
class ExplorationResult:
    """All explored points plus the Pareto frontier."""

    points: tuple[DesignPoint, ...]

    @property
    def pareto_front(self) -> tuple[DesignPoint, ...]:
        """Non-dominated points, sorted by makespan."""
        front = [
            p
            for p in self.points
            if not any(q.dominates(p) for q in self.points)
        ]
        return tuple(sorted(front, key=lambda p: (p.makespan_s, p.area_cells)))

    def table_text(self) -> str:
        """Render the exploration as a report table."""
        front = set(self.pareto_front)
        return format_table(
            ("strategy", "max conc.", "makespan (s)", "area (cells)",
             "FTI", "pareto"),
            [
                (
                    p.strategy,
                    p.max_concurrent_ops,
                    f"{p.makespan_s:g}",
                    p.area_cells,
                    f"{p.fti:.3f}",
                    "*" if p in front else "",
                )
                for p in sorted(
                    self.points, key=lambda p: (p.strategy, p.max_concurrent_ops)
                )
            ],
            title="Architectural design-space exploration",
        )


class ArchitecturalExplorer:
    """Sweeps binding strategies x concurrency caps through the flow."""

    #: Binding strategies swept: the library's speed/area extremes.
    STRATEGIES = (ResourceBinder.FASTEST, ResourceBinder.SMALLEST)

    def __init__(
        self,
        params: AnnealingParams | None = None,
        seed: int | random.Random | None = None,
    ) -> None:
        self.binder = ResourceBinder()
        self.params = params if params is not None else AnnealingParams.fast()
        self._rng = ensure_rng(seed)

    def explore(
        self,
        graph: SequencingGraph,
        concurrency_caps: tuple[int, ...] = (2, 3, 4),
    ) -> ExplorationResult:
        """Run the full pipeline per (strategy, cap) combination."""
        points = []
        for strategy in self.STRATEGIES:
            binding = self.binder.bind(graph, strategy=strategy)
            durations = binding.durations()
            footprints = {
                op: spec.footprint_area for op, spec in binding.items()
            }
            for cap in concurrency_caps:
                schedule = integerized(
                    list_schedule(
                        graph,
                        durations,
                        max_concurrent_ops=cap,
                        footprints=footprints,
                    )
                )
                placer = SimulatedAnnealingPlacer(
                    params=self.params, seed=self._rng.getrandbits(32)
                )
                t0 = time.perf_counter()
                result = placer.place(schedule, binding)
                runtime = time.perf_counter() - t0
                fti = compute_fti(result.placement)
                points.append(
                    DesignPoint(
                        strategy=strategy,
                        max_concurrent_ops=cap,
                        makespan_s=schedule.makespan,
                        area_cells=result.area_cells,
                        area_mm2=result.area_mm2,
                        fti=fti.fti,
                        runtime_s=runtime,
                    )
                )
        return ExplorationResult(points=tuple(points))
