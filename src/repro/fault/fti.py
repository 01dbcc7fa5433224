"""The fault tolerance index (FTI), paper Section 5.2/5.3.

For a configuration C on an ``m x n`` array, a cell is *C-covered* if
the biochip still works when that single cell fails: either no module
ever uses the cell, or every module whose footprint contains it can be
relocated by partial reconfiguration — moved to contiguous fault-free
cells, avoiding the faulty cell, without disturbing concurrently
operating modules. Then ``FTI = k / (m * n)`` where k is the number of
C-covered cells: FTI = 1 means any single fault is tolerable, FTI = 0
means none is.

The index is computed by position counting on a bitboard
(:class:`~repro.grid.bitboard.Bitboard`): enumerate every feasible
relocation of the module once (the faulty cell not yet considered) as
the free mask eroded to the window, then decide each faulty cell by
whether some feasible window misses it. The cells no window misses are
the intersection of the windows, one rectangle per orientation. This is
the paper's Section 5.3 procedure — mark the faulty cell and the
concurrently operating modules occupied, enumerate maximal empty
rectangles, and check whether any accommodates the module — decided for
every cell of the footprint at once, and cheap enough for the
annealer's inner loop. The test suite checks it cell for cell against
that MER procedure, a brute-force scan and summed-area-table counting.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

from repro.geometry import Point, Rect
from repro.grid.bitboard import Bitboard

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
    bb = placement.bounding_box()
    if width is None:
        # Normalize: translate the footprints so the bounding box
        # origin is (1, 1), as Placement.normalized() would.
        dx, dy = 1 - bb.x, 1 - bb.y
        width, height = bb.width, bb.height
    else:
        if bb.x < 1 or bb.y < 1 or bb.x2 > width or bb.y2 > height:
            raise ValueError(
                f"placement bounding box {bb} exceeds the {width}x{height} array"
            )
        dx = dy = 0
    assert height is not None

    board = Bitboard(width, height)
    modules = placement.modules()
    footprints = [pm.footprint.translated(dx, dy) for pm in modules]
    per_module: dict[str, ModuleRelocatability] = {}
    uncovered: set[Point] = set()
    for pm, fp, blocked in zip(
        modules, footprints, _concurrent_obstacles(board, modules, footprints)
    ):
        analysis = _analyze_module(
            board, pm, fp, board.inside & ~blocked, allow_rotation
        )
        per_module[pm.op_id] = analysis
        uncovered.update(analysis.stuck_cells)

    all_cells = frozenset(
        Point(x, y) for y in range(1, height + 1) for x in range(1, width + 1)
    )
    return FTIReport(
        width=width,
        height=height,
        covered=all_cells - uncovered,
        per_module=per_module,
    )


# ---------------------------------------------------------------------------
# per-module analysis
# ---------------------------------------------------------------------------


def _concurrent_obstacles(
    board: Bitboard, modules: list[PlacedModule], footprints: list[Rect]
) -> list[int]:
    """Per module, the cells the relocated module must avoid: the union
    of every concurrently operating module's footprint. The module
    itself is left out, so its old cells are free for reuse (only the
    faulty one is later marked).

    One sweep in start order: a module overlaps exactly the earlier
    starters still running at its start, since spans are half-open.
    """
    masks = [board.rect(fp.x, fp.y, fp.x2, fp.y2) for fp in footprints]
    blocked = [0] * len(modules)
    active: list[int] = []
    for i in sorted(range(len(modules)), key=lambda i: modules[i].start):
        start = modules[i].start
        active = [j for j in active if modules[j].stop > start]
        for j in active:
            blocked[i] |= masks[j]
            blocked[j] |= masks[i]
        active.append(i)
    return blocked


def _analyze_module(
    board: Bitboard, pm: PlacedModule, fp: Rect, free: int, allow_rotation: bool
) -> ModuleRelocatability:
    """Feasible windows on the *free* mask, stuck cells as their
    intersection; *fp* is *pm*'s footprint on the board.

    For each orientation, the feasible origins are *free* eroded to the
    window size. A faulty cell f is survivable iff some feasible window
    misses f, so the stuck cells are the footprint cells that lie in
    every feasible window (all of them when there is none). The windows
    of one orientation share a size, so the cells they all contain form
    one rectangle, from the largest origin to the smallest origin plus
    the size less one on each axis; the stuck cells are the footprint's
    cells inside every orientation's rectangle.
    """
    w0, h0 = pm.spec.footprint_width, pm.spec.footprint_height
    dims = [(w0, h0)]
    if allow_rotation and w0 != h0:
        dims.append((h0, w0))
    total = 0
    x1, y1, x2, y2 = 1, 1, board.width, board.height
    for w, h in dims:
        origins = board.origins(free, w, h)
        if not origins:
            continue
        total += origins.bit_count()
        lo_x, hi_x = board.column_span(origins)
        lo_y, hi_y = board.row_span(origins)
        x1, x2 = max(x1, hi_x), min(x2, lo_x + w - 1)
        y1, y2 = max(y1, hi_y), min(y2, lo_y + h - 1)

    cells = frozenset(fp.cells())
    if total:
        stuck = frozenset(
            Point(x, y)
            for y in range(max(y1, fp.y), min(y2, fp.y2) + 1)
            for x in range(max(x1, fp.x), min(x2, fp.x2) + 1)
        )
    else:
        stuck = cells
    return ModuleRelocatability(
        op_id=pm.op_id,
        feasible_positions=total,
        relocatable_cells=cells - stuck,
        stuck_cells=stuck,
    )
