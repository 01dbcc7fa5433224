"""Figure 8 + Section 6.2: the enhanced (two-stage) placement.

Paper numbers at beta = 30: area 173.25 mm^2 (7x11 = 77 cells), FTI
0.8052 — a 534% FTI gain for a 22.2% area increase over the min-area
placement. This experiment reruns the two-stage placer and reports the
same comparison.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments import paper_constants as paper
from repro.experiments.pcr import pcr_case_study
from repro.placement.annealer import AnnealingParams
from repro.placement.two_stage import TwoStagePlacer, TwoStageResult


@dataclass(frozen=True)
class EnhancedExperiment:
    """Measured two-stage results alongside the paper's."""

    result: TwoStageResult

    def rows(self) -> list[tuple[str, str, str]]:
        """(metric, paper, measured) rows for the report."""
        r = self.result
        return [
            ("beta", str(paper.ENHANCED_BETA), f"{r.beta:g}"),
            ("area (mm^2)", f"{paper.ENHANCED_AREA_MM2:g}", f"{r.area_mm2:g}"),
            ("area (cells)", str(paper.ENHANCED_AREA_CELLS), str(r.stage2.area_cells)),
            ("FTI", f"{paper.ENHANCED_FTI:g}", f"{r.fti:.4f}"),
            (
                "area increase vs stage 1",
                f"{paper.ENHANCED_AREA_INCREASE_PCT:g}%",
                f"{r.area_increase_pct:.1f}%",
            ),
            (
                "FTI increase vs stage 1",
                f"{paper.ENHANCED_FTI_INCREASE_PCT:g}%",
                f"{r.fti_increase_pct:.0f}%",
            ),
        ]


def run_enhanced_experiment(
    beta: float = 30.0,
    seed: int = 7,
    stage1_params: AnnealingParams | None = None,
) -> EnhancedExperiment:
    """Run the two-stage placer on the PCR case study."""
    study = pcr_case_study()
    placer = TwoStagePlacer(
        beta=beta,
        stage1_params=(
            stage1_params if stage1_params is not None else AnnealingParams.fast()
        ),
        seed=seed,
    )
    return EnhancedExperiment(result=placer.place(study.schedule, study.binding))
