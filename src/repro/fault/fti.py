"""The fault tolerance index (FTI), paper Section 5.2/5.3.

For a configuration C on an ``m x n`` array, a cell is *C-covered* if
the biochip still works when that single cell fails: either no module
ever uses the cell, or every module whose footprint contains it can be
relocated by partial reconfiguration — moved to contiguous fault-free
cells, avoiding the faulty cell, without disturbing concurrently
operating modules. Then ``FTI = k / (m * n)`` where k is the number of
C-covered cells: FTI = 1 means any single fault is tolerable, FTI = 0
means none is.

The index is computed by summed-area-table position counting:
enumerate every feasible relocation of the module once (the faulty cell
not yet considered), then decide each faulty cell by whether some
feasible placement's footprint misses it. This is the paper's Section
5.3 procedure — mark the faulty cell and the concurrently operating
modules occupied, enumerate maximal empty rectangles, and check whether
any accommodates the module — decided for every cell of the footprint
at once, and cheap enough for the annealer's inner loop. The test suite
checks it cell for cell against that MER procedure and a brute-force
scan.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from repro.geometry import Point
from repro.grid.occupancy import OccupancyGrid

if TYPE_CHECKING:  # placement imports fault's cost hooks; avoid the cycle
    from repro.placement.model import PlacedModule, Placement


@dataclass(frozen=True)
class ModuleRelocatability:
    """Relocation analysis of one placed module."""

    op_id: str
    #: Number of feasible (x, y, orientation) relocation targets, the
    #: faulty cell not yet considered.
    feasible_positions: int
    #: Footprint cells whose failure this module survives.
    relocatable_cells: frozenset[Point]
    #: Footprint cells whose failure strands this module.
    stuck_cells: frozenset[Point]

    @property
    def fully_relocatable(self) -> bool:
        """True if the module survives a fault on any of its cells."""
        return not self.stuck_cells


@dataclass(frozen=True)
class FTIReport:
    """Complete C-coveredness analysis of a placement."""

    width: int
    height: int
    covered: frozenset[Point]
    per_module: dict[str, ModuleRelocatability]

    @property
    def cell_count(self) -> int:
        """Total array cells, the FTI denominator (m * n)."""
        return self.width * self.height

    @property
    def fault_tolerance_number(self) -> int:
        """k — the number of C-covered cells."""
        return len(self.covered)

    @property
    def fti(self) -> float:
        """The fault tolerance index, k / (m * n)."""
        return self.fault_tolerance_number / self.cell_count

    @cached_property
    def uncovered(self) -> frozenset[Point]:
        """Cells whose failure the configuration cannot tolerate."""
        all_cells = {
            Point(x, y)
            for y in range(1, self.height + 1)
            for x in range(1, self.width + 1)
        }
        return frozenset(all_cells - self.covered)

    def is_covered(self, p: Point | tuple[int, int]) -> bool:
        """True if cell *p* is C-covered."""
        return Point(*p) in self.covered

    def to_dict(self) -> dict:
        """JSON-safe summary: the index, counts, and per-module analysis.

        The uncovered cell list is included (sorted) rather than the
        covered one — it is the short, actionable side of the analysis.
        """
        return {
            "array": [self.width, self.height],
            "fti": self.fti,
            "fault_tolerance_number": self.fault_tolerance_number,
            "cell_count": self.cell_count,
            "uncovered_cells": [[p.x, p.y] for p in sorted(self.uncovered)],
            "modules": {
                op_id: {
                    "feasible_positions": m.feasible_positions,
                    "fully_relocatable": m.fully_relocatable,
                    "stuck_cells": [[p.x, p.y] for p in sorted(m.stuck_cells)],
                }
                for op_id, m in self.per_module.items()
            },
        }

    def __str__(self) -> str:
        return (
            f"FTI {self.fti:.4f} ({self.fault_tolerance_number}/{self.cell_count} "
            f"cells C-covered on {self.width}x{self.height})"
        )


def compute_fti(
    placement: Placement,
    width: int | None = None,
    height: int | None = None,
    allow_rotation: bool = True,
) -> FTIReport:
    """Compute the FTI of *placement*.

    By default the placement is normalized so its bounding array — the
    array one would manufacture — is exactly the FTI denominator, as in
    the paper's "7x9 = 63 cells, FTI 0.1270". Pass explicit *width* and
    *height* to evaluate the placement as-is on a larger array (spare
    rows/columns then raise coverage).
    """
    if (width is None) != (height is None):
        raise ValueError("pass both width and height, or neither")
    if width is None:
        placement = placement.normalized()
        width, height = placement.array_dims()
    else:
        bb = placement.bounding_box()
        if bb.x < 1 or bb.y < 1 or bb.x2 > width or bb.y2 > height:
            raise ValueError(
                f"placement bounding box {bb} exceeds the {width}x{height} array"
            )
    assert height is not None

    per_module: dict[str, ModuleRelocatability] = {}
    uncovered: set[Point] = set()
    for pm in placement:
        analysis = _analyze_module(placement, pm, width, height, allow_rotation)
        per_module[pm.op_id] = analysis
        uncovered.update(analysis.stuck_cells)

    all_cells = {
        Point(x, y) for y in range(1, height + 1) for x in range(1, width + 1)
    }
    return FTIReport(
        width=width,
        height=height,
        covered=frozenset(all_cells - uncovered),
        per_module=per_module,
    )


# ---------------------------------------------------------------------------
# per-module analysis
# ---------------------------------------------------------------------------


def _orientations(pm: PlacedModule, allow_rotation: bool) -> list[tuple[int, int]]:
    w, h = pm.spec.footprint_width, pm.spec.footprint_height
    dims = [(w, h)]
    if allow_rotation and w != h:
        dims.append((h, w))
    return dims


def _obstacle_grid(
    placement: Placement, pm: PlacedModule, width: int, height: int
) -> OccupancyGrid:
    """Cells the relocated *pm* must avoid: every concurrently operating
    module's footprint. *pm* itself is removed — its old cells are free
    for reuse (only the faulty one is later marked)."""
    return placement.occupancy_for_span(
        pm.interval, exclude=pm.op_id, width=width, height=height
    )


def _analyze_module(
    placement: Placement,
    pm: PlacedModule,
    width: int,
    height: int,
    allow_rotation: bool,
) -> ModuleRelocatability:
    """Summed-area-table algorithm.

    For each orientation, mark position (x, y) feasible when the w x h
    window there contains no obstacle. Then a faulty cell f is
    survivable iff some feasible placement's footprint misses f, i.e.
    ``cover_count[f] < total_feasible`` where cover_count accumulates,
    per cell, how many feasible footprints contain it.
    """
    occ = _obstacle_grid(placement, pm, width, height).matrix_view().astype(np.int64)
    # Summed-area table with a zero border: S[r, c] = sum of occ[:r, :c].
    sat = np.zeros((height + 1, width + 1), dtype=np.int64)
    sat[1:, 1:] = occ.cumsum(axis=0).cumsum(axis=1)

    total = 0
    cover = np.zeros((height + 1, width + 1), dtype=np.int64)  # diff array
    for w, h in _orientations(pm, allow_rotation):
        if w > width or h > height:
            continue
        # window_sum[r, c] = occupied cells in rows r..r+h-1, cols c..c+w-1
        window = (
            sat[h:, w:]
            - sat[:-h, w:][: height - h + 1]
            - sat[h:, : width - w + 1]
            + sat[: height - h + 1, : width - w + 1]
        )
        feasible = window == 0
        total += int(feasible.sum())
        rows, cols = np.nonzero(feasible)
        # 2-D difference trick: +1 at (r, c), -1 at (r, c+w) and (r+h, c),
        # +1 at (r+h, c+w); cumulative sums later yield per-cell counts.
        np.add.at(cover, (rows, cols), 1)
        np.add.at(cover, (rows, cols + w), -1)
        np.add.at(cover, (rows + h, cols), -1)
        np.add.at(cover, (rows + h, cols + w), 1)
    counts = cover.cumsum(axis=0).cumsum(axis=1)[:height, :width]

    relocatable, stuck = set(), set()
    for p in pm.footprint.cells():
        if total > int(counts[p.y - 1, p.x - 1]):
            relocatable.add(p)
        else:
            stuck.add(p)
    return ModuleRelocatability(
        op_id=pm.op_id,
        feasible_positions=total,
        relocatable_cells=frozenset(relocatable),
        stuck_cells=frozenset(stuck),
    )
