"""Maximal-empty-rectangle (MER) enumeration.

A *maximal empty rectangle* is a rectangle of unused cells that no
other empty rectangle properly contains (paper Section 5.3). Partial
reconfiguration succeeds exactly when some MER can accommodate the
faulty module, because any sufficiently large empty rectangle is
contained in a maximal one.

:func:`find_maximal_empty_rectangles` is the staircase sweep (linear
in matrix size plus output). The test suite checks it against a
quartic brute-force enumeration.
"""

from __future__ import annotations

import numpy as np

from repro.fault.staircase import Staircase
from repro.geometry import Rect
from repro.grid.occupancy import OccupancyGrid


def _as_matrix(grid: OccupancyGrid | np.ndarray) -> np.ndarray:
    if isinstance(grid, OccupancyGrid):
        return grid.matrix_view()
    m = np.asarray(grid)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D occupancy matrix, got shape {m.shape}")
    return m


def find_maximal_empty_rectangles(grid: OccupancyGrid | np.ndarray) -> list[Rect]:
    """Enumerate all maximal empty rectangles of a 0/1 occupancy grid.

    Sweeps rows bottom-to-top maintaining, per row, the empty-run height
    of every column and a :class:`~repro.fault.staircase.Staircase`. A
    step popped at column c is a rectangle that is maximal to the left
    (a shorter run started it), right (column c's run is shorter), and
    bottom (some column in its span has exactly its height); it is
    emitted if it also cannot grow upward (some cell directly above its
    span is occupied, or it touches the top edge).

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
            above = m[r + 1]
            # blocked_pref[c] = number of occupied cells in above[0:c].
            blocked_pref = np.concatenate(([0], np.cumsum(above, dtype=np.int64)))
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
