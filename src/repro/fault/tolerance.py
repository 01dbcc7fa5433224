"""Extended tolerance analysis: beyond the single-fault index.

The paper's FTI assumes one faulty cell, justified by frequent testing
(Section 5.2), and notes the model "can be easily updated when
statistical failure data becomes available". This module provides those
updates:

* per-module **criticality** — which module's cells dominate the
  uncovered set (the designer's first target for spare cells);
* **multi-fault survival** — Monte-Carlo simulation of *sequential*
  cell failures with on-line partial reconfiguration after each, giving
  the distribution of "faults to failure";
* **spare-cell statistics** — how much idle area each time interval
  actually has, which bounds what reconfiguration can ever achieve.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.fault.fti import FTIReport, compute_fti
from repro.fault.reconfigure import PartialReconfigurer
from repro.geometry import Point
from repro.grid.bitboard import Bitboard
from repro.util.errors import ReconfigurationError
from repro.util.rng import ensure_rng

if TYPE_CHECKING:  # placement imports fault's cost hooks; avoid the cycle
    from repro.placement.model import Placement


@dataclass(frozen=True)
class ModuleCriticality:
    """How much one module contributes to the uncovered-cell set."""

    op_id: str
    footprint_cells: int
    stuck_cells: int

    @property
    def stuck_fraction(self) -> float:
        """Fraction of the module's own cells that are single-points of
        failure."""
        return self.stuck_cells / self.footprint_cells if self.footprint_cells else 0.0


@dataclass(frozen=True)
class SpareStatistics:
    """Idle-cell accounting per schedule interval."""

    #: (interval start, free cells, total cells) per event interval.
    intervals: tuple[tuple[float, int, int], ...]

    @property
    def min_free_cells(self) -> int:
        """The tightest interval's spare count — the reconfiguration
        bottleneck."""
        return min((free for _, free, _ in self.intervals), default=0)

    @property
    def mean_utilization(self) -> float:
        """Average fraction of the array occupied across intervals."""
        if not self.intervals:
            return 0.0
        fracs = [(total - free) / total for _, free, total in self.intervals]
        return sum(fracs) / len(fracs)


@dataclass(frozen=True)
class MultiFaultResult:
    """Monte-Carlo distribution of sequential faults survived."""

    trials: int
    #: faults survived in each trial (length == trials).
    survived_counts: tuple[int, ...]

    @property
    def mean_faults_to_failure(self) -> float:
        """Average number of additional faults the chip absorbs."""
        return sum(self.survived_counts) / self.trials if self.trials else 0.0

    def survival_probability(self, k: int) -> float:
        """P(chip survives at least *k* sequential faults)."""
        return sum(1 for c in self.survived_counts if c >= k) / self.trials

    def histogram(self) -> dict[int, int]:
        """faults-survived -> trial count."""
        return dict(sorted(Counter(self.survived_counts).items()))


class ToleranceAnalyzer:
    """One-stop tolerance analysis of a placement."""

    def __init__(self) -> None:
        self.reconfigurer = PartialReconfigurer()

    # -- single-fault views -----------------------------------------------------

    def fti(self, placement: "Placement") -> FTIReport:
        """The paper's FTI, on the placement's bounding array."""
        analyzed = placement.normalized()
        return compute_fti(
            analyzed, width=analyzed.core_width, height=analyzed.core_height
        )

    def criticality(self, placement: "Placement") -> list[ModuleCriticality]:
        """Per-module stuck-cell ranking on the bounding array, most
        critical first."""
        report = self.fti(placement)
        out = []
        for pm in placement:
            analysis = report.per_module[pm.op_id]
            out.append(
                ModuleCriticality(
                    op_id=pm.op_id,
                    footprint_cells=pm.footprint.area,
                    stuck_cells=len(analysis.stuck_cells),
                )
            )
        return sorted(out, key=lambda c: (-c.stuck_cells, c.op_id))

    def spare_statistics(self, placement: "Placement") -> SpareStatistics:
        """Free-cell counts per event interval of the bounding array."""
        analyzed = placement.normalized()
        board = Bitboard(analyzed.core_width, analyzed.core_height)
        total = board.width * board.height
        intervals = []
        events = analyzed.event_times()
        for t in events[:-1] if len(events) > 1 else events:
            used = board.cover(pm.footprint for pm in analyzed.active_at(t))
            intervals.append((t, total - used.bit_count(), total))
        return SpareStatistics(intervals=tuple(intervals))

    # -- multi-fault extension ---------------------------------------------------

    def multi_fault_survival(
        self,
        placement: "Placement",
        trials: int = 200,
        max_faults: int | None = None,
        seed: int | random.Random | None = None,
    ) -> MultiFaultResult:
        """Sequential-fault Monte Carlo on the bounding array.

        Each trial: draw distinct faulty cells uniformly, one at a time;
        after each, attempt partial reconfiguration of every affected
        module (previously failed cells stay forbidden). The trial's
        score is the number of faults survived before the first
        unrecoverable one. *max_faults* caps the sequence (default: the
        whole array).
        """
        if trials < 1:
            raise ValueError(f"trials must be >= 1, got {trials}")
        rng = ensure_rng(seed)
        base = placement.normalized()
        width, height = base.core_width, base.core_height
        cap = max_faults if max_faults is not None else width * height
        counts = []
        for _ in range(trials):
            current = base.copy()
            failed: list[Point] = []
            cells = [
                Point(x, y)
                for y in range(1, height + 1)
                for x in range(1, width + 1)
            ]
            rng.shuffle(cells)
            survived = 0
            for cell in cells[:cap]:
                try:
                    current, _ = self.reconfigurer.apply(
                        current, cell, extra_faults=failed
                    )
                except ReconfigurationError:
                    break
                failed.append(cell)
                survived += 1
            counts.append(survived)
        return MultiFaultResult(trials=trials, survived_counts=tuple(counts))
