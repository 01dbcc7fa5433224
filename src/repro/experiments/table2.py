"""Table 2: the area/FTI trade-off as beta sweeps 10..60.

The paper's knob beta weighs fault tolerance against area in the
two-stage placer's second phase; sweeping it traces the design-space
frontier from "compact but fragile" to "every single fault tolerable"
(FTI = 1.0 at 222.75 mm^2 in the paper).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments import paper_constants as paper
from repro.experiments.pcr import pcr_case_study
from repro.placement.annealer import AnnealingParams
from repro.placement.two_stage import TwoStagePlacer, TwoStageResult
from repro.util.tables import format_table

#: The beta values of the paper's Table 2.
BETAS = (10.0, 20.0, 30.0, 40.0, 50.0, 60.0)


@dataclass(frozen=True)
class BetaSweepRow:
    """One column of Table 2 (the paper lays betas out horizontally)."""

    beta: float
    area_mm2: float
    area_cells: int
    fti: float
    result: TwoStageResult


@dataclass(frozen=True)
class BetaSweep:
    """The whole sweep plus shape checks against the paper's table."""

    rows: tuple[BetaSweepRow, ...]

    def table_text(self) -> str:
        """Render measured-vs-paper in the paper's layout."""
        header = ["beta"] + [f"{r.beta:g}" for r in self.rows]
        area_row = ["area (mm^2)"] + [f"{r.area_mm2:g}" for r in self.rows]
        fti_row = ["FTI"] + [f"{r.fti:.4f}" for r in self.rows]
        paper_area = ["paper area"] + [
            f"{paper.TABLE2[int(r.beta)][0]:g}" if int(r.beta) in paper.TABLE2 else "-"
            for r in self.rows
        ]
        paper_fti = ["paper FTI"] + [
            f"{paper.TABLE2[int(r.beta)][1]:g}" if int(r.beta) in paper.TABLE2 else "-"
            for r in self.rows
        ]
        return format_table(
            header,
            [area_row, fti_row, paper_area, paper_fti],
            title="Table 2: solutions for different values of beta",
        )

    def fti_is_monotone(self, tolerance: float = 0.08) -> bool:
        """FTI should not decrease as beta grows (modulo SA noise)."""
        ftis = [r.fti for r in self.rows]
        return all(b >= a - tolerance for a, b in zip(ftis, ftis[1:]))

    def reaches_full_coverage(self) -> bool:
        """The paper reaches FTI = 1.0 at beta = 60."""
        return any(r.fti == 1.0 for r in self.rows)


def run_beta_sweep(
    seed: int = 7,
    stage1_params: AnnealingParams | None = None,
) -> BetaSweep:
    """Run the two-stage placer once per beta.

    Stage 1 is re-run per beta with the same seed (as the paper's
    procedure describes), so rows differ only through the fault-aware
    refinement.
    """
    study = pcr_case_study()
    rows = []
    for beta in BETAS:
        placer = TwoStagePlacer(
            beta=float(beta),
            stage1_params=(
                stage1_params if stage1_params is not None else AnnealingParams.fast()
            ),
            seed=seed,
        )
        result = placer.place(study.schedule, study.binding)
        rows.append(
            BetaSweepRow(
                beta=float(beta),
                area_mm2=result.area_mm2,
                area_cells=result.stage2.area_cells,
                fti=result.fti,
                result=result,
            )
        )
    return BetaSweep(rows=tuple(rows))
