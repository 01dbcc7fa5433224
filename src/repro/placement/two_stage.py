"""The enhanced two-stage placer (paper Section 6.2).

Stage 1 runs the fault-oblivious annealer to a minimum-area placement.
Stage 2 re-centers that placement in an enlarged core and refines it
with *low-temperature simulated annealing* (LTSA): single-module
displacements only, cost ``alpha * area - beta * GAMMA * FTI``. Large
beta buys coverage with area; small beta stays compact — reproducing
the paper's Table 2 trade-off curve.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.fault.fti import FTIReport, compute_fti
from repro.placement.annealer import AnnealingParams, SimulatedAnnealing
from repro.placement.cost import (
    DEFAULT_FT_GAMMA,
    AreaCost,
    FaultAwareCost,
    require_delta,
)
from repro.placement.greedy import build_placed_modules
from repro.placement.incremental import IncrementalCostEvaluator
from repro.placement.legalize import repair_overlaps
from repro.placement.model import Placement
from repro.placement.moves import MoveGenerator
from repro.placement.sa_placer import PlacementResult, SimulatedAnnealingPlacer
from repro.util.rng import ensure_rng

if TYPE_CHECKING:  # synthesis.flow imports the placers; avoid the cycle
    from repro.synthesis.schedule import Schedule


@dataclass
class TwoStageResult:
    """Both stages' outputs plus the paper's comparison metrics."""

    beta: float
    stage1: PlacementResult
    stage2: PlacementResult
    fti_stage1: FTIReport
    fti_stage2: FTIReport
    runtime_s: float

    @property
    def placement(self) -> Placement:
        """The final (stage-2) placement."""
        return self.stage2.placement

    @property
    def area_mm2(self) -> float:
        """Final area in mm^2 (paper Table 2's first row)."""
        return self.stage2.area_mm2

    @property
    def fti(self) -> float:
        """Final FTI (paper Table 2's second row)."""
        return self.fti_stage2.fti

    @property
    def area_increase_pct(self) -> float:
        """Stage-2 area overhead over stage 1 (paper: +22.2% at beta=30)."""
        return 100.0 * (self.stage2.area_mm2 / self.stage1.area_mm2 - 1.0)

    @property
    def fti_increase_pct(self) -> float:
        """Stage-2 FTI gain over stage 1 (paper: +534% at beta=30)."""
        if self.fti_stage1.fti == 0:
            return math.inf if self.fti_stage2.fti > 0 else 0.0
        return 100.0 * (self.fti_stage2.fti / self.fti_stage1.fti - 1.0)

    def to_dict(self) -> dict:
        """JSON-safe summary of both stages and the paper's deltas."""
        return {
            "beta": self.beta,
            "stage1": self.stage1.to_dict(),
            "stage2": self.stage2.to_dict(),
            "fti_stage1": self.fti_stage1.fti,
            "fti_stage2": self.fti_stage2.fti,
            "area_increase_pct": self.area_increase_pct,
            "fti_increase_pct": self.fti_increase_pct,
            "runtime_s": self.runtime_s,
        }

    def __str__(self) -> str:
        return (
            f"TwoStageResult(beta={self.beta:g}: "
            f"{self.stage1.area_mm2:.2f} mm^2 / FTI {self.fti_stage1.fti:.4f} -> "
            f"{self.stage2.area_mm2:.2f} mm^2 / FTI {self.fti_stage2.fti:.4f})"
        )


class TwoStagePlacer:
    """Min-area annealing followed by fault-aware LTSA refinement."""

    def __init__(
        self,
        beta: float = 30.0,
        alpha: float = 1.0,
        ft_gamma: float = DEFAULT_FT_GAMMA,
        stage1_params: AnnealingParams | None = None,
        stage2_params: AnnealingParams | None = None,
        core_width: int | None = None,
        core_height: int | None = None,
        #: Stage-2 core grows by this factor over the stage-1 array so
        #: the placement can drift outward to buy coverage.
        expansion: float = 1.8,
        allow_rotation: bool = True,
        p_single: float = 0.8,
        seed: int | random.Random | None = None,
        record_history: bool = True,
    ) -> None:
        if expansion < 1.0:
            raise ValueError(f"expansion must be >= 1.0, got {expansion}")
        self.beta = beta
        self.alpha = alpha
        self.ft_gamma = ft_gamma
        self.stage1_params = stage1_params or AnnealingParams.balanced()
        self.stage2_params = stage2_params or AnnealingParams.low_temperature()
        self.core_width = core_width
        self.core_height = core_height
        self.expansion = expansion
        self.allow_rotation = allow_rotation
        self.p_single = p_single
        self.record_history = record_history
        self._rng = ensure_rng(seed)

    def place(self, schedule: Schedule, binding) -> TwoStageResult:
        """Run both stages on a scheduled, bound assay."""
        t0 = time.perf_counter()
        modules = build_placed_modules(schedule, binding)

        # ---- stage 1: fault-oblivious minimum area -------------------------
        stage1_placer = SimulatedAnnealingPlacer(
            params=self.stage1_params,
            cost=self.stage1_cost(),
            core_width=self.core_width,
            core_height=self.core_height,
            p_single=self.p_single,
            allow_rotation=self.allow_rotation,
            seed=self._rng,
            record_history=self.record_history,
        )
        stage1 = stage1_placer.place_modules(modules)
        fti1 = compute_fti(stage1.placement, allow_rotation=self.allow_rotation)

        # ---- stage 2: low-temperature fault-aware refinement ----------------
        stage2 = self._refine(stage1.placement)
        fti2 = compute_fti(stage2.placement, allow_rotation=self.allow_rotation)
        return TwoStageResult(
            beta=self.beta,
            stage1=stage1,
            stage2=stage2,
            fti_stage1=fti1,
            fti_stage2=fti2,
            runtime_s=time.perf_counter() - t0,
        )

    # -- internals --------------------------------------------------------------------

    def stage1_cost(self) -> AreaCost:
        """The stage-1 objective: area plus the overlap penalty."""
        return AreaCost(alpha=self.alpha)

    def stage2_cost(self) -> FaultAwareCost:
        """The stage-2 (LTSA) objective: area traded against FTI."""
        return FaultAwareCost(
            beta=self.beta,
            alpha=self.alpha,
            ft_gamma=self.ft_gamma,
            allow_rotation=self.allow_rotation,
        )

    def _recenter(self, placement: Placement) -> Placement:
        """Copy *placement* into an enlarged core, centered, so LTSA can
        drift modules outward in every direction."""
        normalized = placement.normalized()
        w, h = normalized.array_dims()
        core_w = max(w + 2, math.ceil(w * self.expansion))
        core_h = max(h + 2, math.ceil(h * self.expansion))
        dx = (core_w - w) // 2
        dy = (core_h - h) // 2
        out = Placement(core_w, core_h, pitch_mm=normalized.pitch_mm)
        for pm in normalized:
            out.add(pm.moved_to(pm.x + dx, pm.y + dy))
        return out

    def _refine(self, stage1_placement: Placement) -> PlacementResult:
        t0 = time.perf_counter()
        start = self._recenter(stage1_placement)
        cost = self.stage2_cost()
        require_delta(cost)
        window = self.stage2_params.make_window(
            max_span=max(3, max(start.core_width, start.core_height) // 3)
        )
        mover = MoveGenerator(
            window=window,
            p_single=1.0,
            p_rotate=0.5 if self.allow_rotation else 0.0,
            single_only=True,  # paper: only single-module displacement in LTSA
            seed=self._rng,
        )
        engine = SimulatedAnnealing(self.stage2_params, window=window, seed=self._rng)
        inner = self.stage2_params.iterations_per_module * len(start)
        t_anneal = time.perf_counter()
        best, stats = engine.optimize_incremental(
            IncrementalCostEvaluator(start), cost, mover, inner,
            record_history=self.record_history,
        )
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
