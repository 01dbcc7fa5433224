"""The staircase data structure for mining empty spaces.

Paper Section 5.3 (after Edmonds et al., "Mining for empty spaces in
large data sets"): ``staircase(x, y)`` is the collection of all
overlapping empty rectangles with ``(x, y)`` as their bottom-right
corner — a monotone sequence of (start column, height) *steps*, wider
steps being shorter. Sweeping the corner cell across the matrix and
maintaining the staircase incrementally yields every maximal empty
rectangle in time linear in the matrix plus output size.

Our sweep is bottom-to-top, left-to-right (paper coordinates), so a
staircase hangs *downward* from the current row: step ``(s, h)`` means
columns ``s..current`` are empty for at least ``h`` rows ending at the
current row. Geometrically this is the transpose of Edmonds' top-down
description; the structure is identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Step:
    """One step of a staircase: columns ``start..`` are empty *height* deep."""

    start: int
    height: int


class Staircase:
    """Incremental staircase maintenance during a row sweep.

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
