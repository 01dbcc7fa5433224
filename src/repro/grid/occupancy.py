"""Time-sliced 0/1 occupancy grids.

The paper's FTI algorithm (Section 5.3) "models the configuration of
the microfluidic array by a matrix consisting of 0s and 1s": occupied
cells (operating modules plus the faulty cell) are 1, free cells are 0.
:class:`OccupancyGrid` is that matrix with convenience operations.

Internally the grid is a numpy ``uint8`` array indexed ``[y-1, x-1]``
(row-major from the bottom), but the public API speaks 1-based paper
coordinates throughout.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from repro.geometry import Point, Rect


class OccupancyGrid:
    """A 0/1 matrix over a ``width x height`` array of cells."""

    def __init__(self, width: int, height: int) -> None:
        if width < 1 or height < 1:
            raise ValueError(f"grid dimensions must be >= 1, got {width}x{height}")
        self.width = width
        self.height = height
        self._m = np.zeros((height, width), dtype=np.uint8)

    # -- construction -----------------------------------------------------------

    @classmethod
    def from_rects(
        cls, width: int, height: int, rects: Iterable[Rect]
    ) -> "OccupancyGrid":
        """Build a grid with every cell of every rect marked occupied."""
        grid = cls(width, height)
        for rect in rects:
            grid.fill(rect)
        return grid

    @classmethod
    def from_matrix(cls, matrix: np.ndarray) -> "OccupancyGrid":
        """Wrap an existing ``(height, width)`` 0/1 matrix (copied)."""
        m = np.asarray(matrix, dtype=np.uint8)
        if m.ndim != 2:
            raise ValueError(f"expected a 2-D matrix, got shape {m.shape}")
        grid = cls(m.shape[1], m.shape[0])
        grid._m = m.copy()
        return grid

    def copy(self) -> "OccupancyGrid":
        """Deep copy."""
        return OccupancyGrid.from_matrix(self._m)

    # -- mutation ------------------------------------------------------------------

    def fill(self, rect: Rect, value: int = 1) -> None:
        """Set every cell of *rect* to *value* (clipped to the grid)."""
        x1 = max(rect.x, 1)
        y1 = max(rect.y, 1)
        x2 = min(rect.x2, self.width)
        y2 = min(rect.y2, self.height)
        if x2 < x1 or y2 < y1:
            return
        self._m[y1 - 1 : y2, x1 - 1 : x2] = value

    def set(self, p: Point | tuple[int, int], value: int = 1) -> None:
        """Set one cell."""
        px, py = p
        self._check(px, py)
        self._m[py - 1, px - 1] = value

    # -- queries ---------------------------------------------------------------------

    @property
    def occupied_count(self) -> int:
        """Number of cells marked 1."""
        return int(self._m.sum())

    def matrix_view(self) -> np.ndarray:
        """Return the underlying matrix *without* copying.

        For hot paths (FTI inner loops). Callers must not mutate it.
        """
        return self._m

    def _check(self, x: int, y: int) -> None:
        if not (1 <= x <= self.width and 1 <= y <= self.height):
            raise KeyError(f"cell ({x},{y}) outside {self.width}x{self.height} grid")

    def __str__(self) -> str:
        rows = []
        for y in range(self.height, 0, -1):
            rows.append("".join("#" if v else "." for v in self._m[y - 1]))
        return "\n".join(rows)
