"""The paper's maximal-empty-rectangle (MER) procedure (Section 5.3).

A *maximal empty rectangle* is a rectangle of unused cells that no
other empty rectangle properly contains. Partial reconfiguration
succeeds exactly when some MER can accommodate the faulty module,
because any sufficiently large empty rectangle lies in a maximal one.
The package answers that question on a bitboard instead (the free mask
eroded to the window); this module keeps the paper's own procedure as
the reference it is held to:

* :class:`Staircase` and :class:`Step` — the staircase data structure
  of Edmonds et al. ("Mining for empty spaces in large data sets");
* :func:`find_maximal_empty_rectangles` — the staircase sweep over a
  0/1 matrix, linear in its size plus the output;
* :func:`brute_force_maximal_empty_rectangles` — the quartic
  enumeration the sweep is checked against;
* :func:`obstacle_matrix` — the cells a relocated module must avoid;
* :func:`reference_find_target` — relocation as MER enumeration, then
  every origin inside each MER, then the nearest one:
  :meth:`repro.fault.reconfigure.PartialReconfigurer.find_target` must
  return the same module.

A matrix is anything ``numpy.asarray`` reads as 2-D, row ``r`` holding
paper row ``y = r + 1`` (so the first row is the bottom one), non-zero
for an occupied cell.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass

import numpy as np

from repro.geometry import Point, Rect
from repro.util.errors import ReconfigurationError


@dataclass(frozen=True)
class Step:
    """One step of a staircase: columns ``start..`` are empty *height* deep."""

    start: int
    height: int


class Staircase:
    """Incremental staircase maintenance during a row sweep.

    ``staircase(x, y)`` is the collection of all overlapping empty
    rectangles with ``(x, y)`` as their bottom-right corner: a monotone
    sequence of (start column, height) steps, wider steps being shorter.
    The sweep here is bottom-to-top, left-to-right (paper coordinates),
    so a staircase hangs *downward* from the current row: step
    ``(s, h)`` means columns ``s..current`` are empty for at least ``h``
    rows ending at the current row. This is the transpose of Edmonds'
    top-down description; the structure is identical.

    Steps are kept in increasing height from the stack bottom; pushing a
    column whose empty run is *shorter* than the top step's height pops
    (finalizes) steps — each pop corresponds to a candidate maximal
    rectangle whose right edge just ended.
    """

    def __init__(self) -> None:
        self._steps: list[Step] = []

    def __len__(self) -> int:
        return len(self._steps)

    def clear(self) -> None:
        """Reset to the empty staircase."""
        self._steps.clear()

    def advance(
        self,
        col: int,
        height: int,
        emit: Callable[[int, int, int], None],
    ) -> None:
        """Incorporate column *col* whose empty run upward-ending here is
        *height* cells deep.

        Every step taller than *height* can no longer extend right; it
        is popped and reported via ``emit(start_col, end_col, step_height)``
        with ``end_col = col - 1`` (the last column it reached). The
        popped region's columns then join a (possibly new) step of
        height *height*.
        """
        start = col
        while self._steps and self._steps[-1].height > height:
            popped = self._steps.pop()
            emit(popped.start, col - 1, popped.height)
            start = popped.start
        if height > 0 and (not self._steps or self._steps[-1].height < height):
            self._steps.append(Step(start, height))

    def finish_row(self, width: int, emit: Callable[[int, int, int], None]) -> None:
        """Flush all remaining steps at the end of a row of *width* columns."""
        self.advance(width, 0, emit)
        self._steps.clear()


def _as_matrix(grid) -> np.ndarray:
    m = np.asarray(grid)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D occupancy matrix, got shape {m.shape}")
    return m


def obstacle_matrix(placement, pm, width: int, height: int) -> np.ndarray:
    """``(height, width)`` 0/1 matrix of the cells the relocated *pm*
    must avoid: the footprint of every other module whose span overlaps
    its own, clipped to the array."""
    m = np.zeros((height, width), dtype=np.uint8)
    for other in placement:
        if other.op_id == pm.op_id:
            continue
        if not (other.start < pm.stop and pm.start < other.stop):
            continue
        fp = other.footprint
        x1, y1 = max(fp.x, 1), max(fp.y, 1)
        x2, y2 = min(fp.x2, width), min(fp.y2, height)
        if x1 <= x2 and y1 <= y2:
            m[y1 - 1 : y2, x1 - 1 : x2] = 1
    return m


def find_maximal_empty_rectangles(grid) -> list[Rect]:
    """Enumerate all maximal empty rectangles of a 0/1 matrix.

    Sweeps rows bottom-to-top maintaining, per row, the empty-run height
    of every column and a :class:`Staircase`. A step popped at column c
    is a rectangle that is maximal to the left (a shorter run started
    it), right (column c's run is shorter), and bottom (some column in
    its span has exactly its height); it is emitted if it also cannot
    grow upward (some cell directly above its span is occupied, or it
    touches the top edge).

    Returns rectangles in paper coordinates (bottom-left cell (1, 1)).
    """
    m = _as_matrix(grid)
    height, width = m.shape
    out: list[Rect] = []
    runs = np.zeros(width, dtype=np.int64)
    staircase = Staircase()

    for r in range(height):
        row = m[r]
        # Empty-run depth of each column, ending at row r.
        runs = np.where(row == 0, runs + 1, 0)
        if r + 1 < height:
            above = (m[r + 1] != 0).astype(np.int64)
            # blocked_pref[c] = number of occupied cells in above[0:c].
            blocked_pref = np.concatenate(([0], np.cumsum(above)))
        else:
            blocked_pref = None

        def emit(start: int, end: int, h: int) -> None:
            # Skip rectangles that could still grow upward.
            if blocked_pref is not None and blocked_pref[end + 1] == blocked_pref[start]:
                return
            out.append(Rect(x=start + 1, y=r - h + 2, width=end - start + 1, height=h))

        for c in range(width):
            staircase.advance(c, int(runs[c]), emit)
        staircase.finish_row(width, emit)
    return out


def brute_force_maximal_empty_rectangles(grid) -> list[Rect]:
    """Quartic-time reference enumeration (for tests and benchmarks).

    Checks every empty rectangle for maximality by attempting to extend
    it one cell in each direction.
    """
    m = (_as_matrix(grid) != 0).astype(np.int64)
    height, width = m.shape
    # 2-D prefix sums for O(1) emptiness queries.
    pref = np.zeros((height + 1, width + 1), dtype=np.int64)
    pref[1:, 1:] = np.cumsum(np.cumsum(m, axis=0), axis=1)

    def occupied_count(r1: int, c1: int, r2: int, c2: int) -> int:
        """Occupied cells in rows r1..r2, cols c1..c2 (0-based, inclusive)."""
        if r1 > r2 or c1 > c2:
            return 0
        return int(
            pref[r2 + 1, c2 + 1] - pref[r1, c2 + 1] - pref[r2 + 1, c1] + pref[r1, c1]
        )

    out = []
    for r1 in range(height):
        for r2 in range(r1, height):
            for c1 in range(width):
                for c2 in range(c1, width):
                    if occupied_count(r1, c1, r2, c2) > 0:
                        continue
                    grow_left = c1 > 0 and occupied_count(r1, c1 - 1, r2, c1 - 1) == 0
                    grow_right = (
                        c2 < width - 1 and occupied_count(r1, c2 + 1, r2, c2 + 1) == 0
                    )
                    grow_down = r1 > 0 and occupied_count(r1 - 1, c1, r1 - 1, c2) == 0
                    grow_up = (
                        r2 < height - 1 and occupied_count(r2 + 1, c1, r2 + 1, c2) == 0
                    )
                    if not (grow_left or grow_right or grow_down or grow_up):
                        out.append(
                            Rect(x=c1 + 1, y=r1 + 1, width=c2 - c1 + 1, height=r2 - r1 + 1)
                        )
    return out


def reference_find_target(placement, pm, faulty_cells: Iterable[Point]):
    """Relocate *pm* off *faulty_cells* by the MER procedure.

    The obstacle matrix marks the footprint of every other module whose
    span overlaps *pm*'s and every in-core faulty cell. Each MER yields
    every origin at which the module, in either orientation, fits inside
    it; the origin nearest the old one wins, then the native
    orientation, the lowest row and the leftmost column. Raises the same
    :class:`ReconfigurationError` as the package when no MER fits.
    """
    w, h = placement.core_width, placement.core_height
    faults = list(faulty_cells)
    m = obstacle_matrix(placement, pm, w, h)
    for x, y in faults:
        if 1 <= x <= w and 1 <= y <= h:
            m[y - 1, x - 1] = 1

    orientations = [False] if pm.spec.is_square else [False, True]
    seen = set()
    for mer in find_maximal_empty_rectangles(m):
        for rotated in orientations:
            mw, mh = pm.spec.dims(rotated)
            if mer.width < mw or mer.height < mh:
                continue
            for y in range(mer.y, mer.y2 - mh + 2):
                for x in range(mer.x, mer.x2 - mw + 2):
                    seen.add((x, y, rotated))
    if not seen:
        raise ReconfigurationError(
            f"no fault-free site for module {pm.op_id} "
            f"({pm.spec.footprint_width}x{pm.spec.footprint_height}) on "
            f"{w}x{h} array avoiding {sorted(faults)}"
        )
    old = Point(pm.x, pm.y)
    x, y, rotated = min(
        seen,
        key=lambda c: (old.manhattan_distance(Point(c[0], c[1])), c[2], c[1], c[0]),
    )
    return pm.moved_to(x, y, rotated=rotated)
