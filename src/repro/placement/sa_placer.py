"""The fault-oblivious simulated-annealing placer (paper Section 4).

Drives the annealer over placements: the constructive initial
placement seeds the search, the four generation functions propose
neighbors inside the controlling window, and the cost is
bounding-array area plus the overlap penalty. Any residual overlap
after annealing (possible in principle — the penalty is soft) is
repaired deterministically before the result is reported.
"""

from __future__ import annotations

import math
import random
import time
from collections.abc import Iterable
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.placement.annealer import AnnealingParams, AnnealingStats, SimulatedAnnealing
from repro.placement.cost import AreaCost, require_delta
from repro.placement.greedy import build_placed_modules
from repro.placement.incremental import IncrementalCostEvaluator
from repro.placement.initial import constructive_initial_placement
from repro.placement.legalize import repair_overlaps
from repro.placement.model import PlacedModule, Placement
from repro.placement.moves import MoveGenerator
from repro.util.rng import ensure_rng

if TYPE_CHECKING:  # synthesis.flow imports the placers; avoid the cycle
    from repro.synthesis.schedule import Schedule


@dataclass
class PlacementResult:
    """A placement plus the metrics and diagnostics the paper reports."""

    placement: Placement
    stats: AnnealingStats
    runtime_s: float
    #: True if the post-anneal repair pass had to move modules.
    repaired: bool = False
    #: Wall-clock seconds inside the annealing loop alone (runtime_s
    #: additionally covers construction, repair, and normalization).
    anneal_s: float = 0.0

    @property
    def proposals_per_s(self) -> float:
        """Annealer throughput — the headline of the incremental engine.

        Based on the anneal-loop time alone, so short schedules are not
        diluted by the fixed construction/repair overhead around them.
        """
        span = self.anneal_s or self.runtime_s
        return self.stats.evaluations / span if span else 0.0

    @property
    def area_cells(self) -> int:
        """Bounding-array area in cells."""
        return self.placement.area_cells

    @property
    def area_mm2(self) -> float:
        """Bounding-array area in mm^2."""
        return self.placement.area_mm2

    @property
    def array_dims(self) -> tuple[int, int]:
        """Bounding-array (width, height)."""
        return self.placement.array_dims()

    def to_dict(self) -> dict:
        """JSON-safe summary: dims, areas, per-module origins, diagnostics."""
        w, h = self.array_dims
        return {
            "array": [w, h],
            "area_cells": self.area_cells,
            "area_mm2": self.area_mm2,
            "repaired": self.repaired,
            "runtime_s": self.runtime_s,
            "anneal_s": self.anneal_s,
            "proposals_per_s": self.proposals_per_s,
            "stop_reason": self.stats.stop_reason,
            "modules": {
                pm.op_id: {
                    "origin": [pm.x, pm.y],
                    "size": [pm.footprint.width, pm.footprint.height],
                    "interval": [pm.start, pm.stop],
                }
                for pm in self.placement
            },
        }

    def __str__(self) -> str:
        w, h = self.array_dims
        return (
            f"PlacementResult({w}x{h} = {self.area_cells} cells, "
            f"{self.area_mm2:.2f} mm^2, {self.stats.stop_reason})"
        )


def default_core_side(modules: Iterable[PlacedModule], slack: float = 2.0) -> int:
    """A core-area side large enough to leave the annealer room.

    At least the largest footprint dimension, and wide enough to hold
    ``slack`` times the peak concurrent cell demand as a square.
    """
    modules = list(modules)
    if not modules:
        raise ValueError("cannot size a core area for zero modules")
    max_dim = max(
        max(pm.spec.footprint_width, pm.spec.footprint_height) for pm in modules
    )
    # Demand changes only at span ends; at a shared instant the stops
    # (kind 0) go first, since a span is over at its stop time. Stops
    # only lower the running demand, so its maximum is the peak over
    # start instants.
    deltas = sorted(
        [(pm.start, 1, pm.spec.footprint_area) for pm in modules]
        + [(pm.stop, 0, -pm.spec.footprint_area) for pm in modules]
    )
    demand = peak = 0
    for _, _, delta in deltas:
        demand += delta
        if demand > peak:
            peak = demand
    return max(max_dim, math.ceil(math.sqrt(slack * peak)))


class SimulatedAnnealingPlacer:
    """Area-minimizing module placement via simulated annealing."""

    def __init__(
        self,
        params: AnnealingParams | None = None,
        cost: AreaCost | None = None,
        core_width: int | None = None,
        core_height: int | None = None,
        p_single: float = 0.8,
        allow_rotation: bool = True,
        seed: int | random.Random | None = None,
    ) -> None:
        self.params = params if params is not None else AnnealingParams.balanced()
        self.cost = cost if cost is not None else AreaCost()
        require_delta(self.cost)
        self.core_width = core_width
        self.core_height = core_height
        self.p_single = p_single
        self.allow_rotation = allow_rotation
        self._rng = ensure_rng(seed)

    # -- entry points ---------------------------------------------------------------

    def place(self, schedule: Schedule, binding) -> PlacementResult:
        """Place a scheduled, bound assay."""
        return self.place_modules(build_placed_modules(schedule, binding))

    def place_modules(self, modules: Iterable[PlacedModule]) -> PlacementResult:
        """Place pre-built modules (origins are ignored and re-derived)."""
        t0 = time.perf_counter()
        modules = list(modules)
        side = None
        if not (self.core_width and self.core_height):
            side = default_core_side(modules)
        core_w = self.core_width or side
        core_h = self.core_height or side

        initial = constructive_initial_placement(
            modules, core_w, core_h, allow_rotation=self.allow_rotation
        )
        window = self.params.make_window(max_span=max(core_w, core_h))
        mover = MoveGenerator(
            window=window,
            p_single=self.p_single,
            p_rotate=0.5 if self.allow_rotation else 0.0,
            seed=self._rng,
        )
        engine = SimulatedAnnealing(self.params, window=window, seed=self._rng)
        inner = self.params.iterations_per_module * len(modules)
        t_anneal = time.perf_counter()
        best, stats = self._anneal(engine, mover, initial, inner)
        anneal_s = time.perf_counter() - t_anneal

        repaired = False
        if not best.is_feasible():
            best = repair_overlaps(best, allow_rotation=self.allow_rotation)
            repaired = True
        return PlacementResult(
            placement=best.normalized(),
            stats=stats,
            runtime_s=time.perf_counter() - t0,
            repaired=repaired,
            anneal_s=anneal_s,
        )

    def _anneal(
        self,
        engine: SimulatedAnnealing,
        mover: MoveGenerator,
        initial: Placement,
        inner_iterations: int,
    ) -> tuple[Placement, AnnealingStats]:
        """Anneal from *initial* on the delta-cost path."""
        return engine.optimize_incremental(
            IncrementalCostEvaluator(initial), self.cost, mover, inner_iterations
        )
