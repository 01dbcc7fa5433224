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

    def __init__(
        self,
        allow_rotation: bool = True,
        reconfigurer: PartialReconfigurer | None = None,
    ) -> None:
        self.allow_rotation = allow_rotation
        self.reconfigurer = (
            reconfigurer
            if reconfigurer is not None
            else PartialReconfigurer(allow_rotation=allow_rotation)
        )

    # -- array-dimension handling -------------------------------------------------

    @staticmethod
    def _on_array(
        placement: "Placement", width: int | None, height: int | None
    ) -> "Placement":
        """The placement viewed on its analysis array.

        Default (both None): the bounding array, matching the paper's
        FTI denominator. Explicit dimensions model a manufactured array
        larger than the placement — spare rows/columns then raise every
        tolerance metric.
        """
        from repro.placement.model import Placement as _Placement

        if (width is None) != (height is None):
            raise ValueError("pass both width and height, or neither")
        if width is None:
            return placement.normalized()
        bb = placement.bounding_box()
        if bb.x < 1 or bb.y < 1 or bb.x2 > width or bb.y2 > height:
            raise ValueError(
                f"placement bounding box {bb} exceeds the {width}x{height} array"
            )
        out = _Placement(width, height, pitch_mm=placement.pitch_mm)
        for pm in placement:
            out.add(pm)
        return out

    # -- single-fault views -----------------------------------------------------

    def fti(
        self,
        placement: "Placement",
        width: int | None = None,
        height: int | None = None,
    ) -> FTIReport:
        """The paper's FTI (bounding-array denominator by default)."""
        analyzed = self._on_array(placement, width, height)
        return compute_fti(
            analyzed,
            width=analyzed.core_width,
            height=analyzed.core_height,
            allow_rotation=self.allow_rotation,
        )

    def criticality(
        self,
        placement: "Placement",
        width: int | None = None,
        height: int | None = None,
    ) -> list[ModuleCriticality]:
        """Per-module stuck-cell ranking, most critical first."""
        analyzed = self._on_array(placement, width, height)
        report = self.fti(analyzed, analyzed.core_width, analyzed.core_height)
        out = []
        for pm in analyzed:
            analysis = report.per_module[pm.op_id]
            out.append(
                ModuleCriticality(
                    op_id=pm.op_id,
                    footprint_cells=pm.footprint.area,
                    stuck_cells=len(analysis.stuck_cells),
                )
            )
        return sorted(out, key=lambda c: (-c.stuck_cells, c.op_id))

    def spare_statistics(
        self,
        placement: "Placement",
        width: int | None = None,
        height: int | None = None,
    ) -> SpareStatistics:
        """Free-cell counts per event interval of the analyzed array."""
        analyzed = self._on_array(placement, width, height)
        w, h = analyzed.core_width, analyzed.core_height
        total = w * h
        intervals = []
        events = analyzed.event_times()
        for t in events[:-1] if len(events) > 1 else events:
            used = analyzed.occupancy_at(t, width=w, height=h).occupied_count
            intervals.append((t, total - used, total))
        return SpareStatistics(intervals=tuple(intervals))

    # -- multi-fault extension ---------------------------------------------------

    def multi_fault_survival(
        self,
        placement: "Placement",
        trials: int = 200,
        max_faults: int | None = None,
        seed: int | random.Random | None = None,
        width: int | None = None,
        height: int | None = None,
    ) -> MultiFaultResult:
        """Sequential-fault Monte Carlo.

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
        base = self._on_array(placement, width, height)
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
