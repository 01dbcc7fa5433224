"""Integer-lattice rectangles over microfluidic-array cells.

A :class:`Rect` is closed on both ends in cell space: it covers the cells
``x .. x + width - 1`` horizontally and ``y .. y + height - 1``
vertically. This matches the paper's convention where a "4x4-cell module
at (1, 1)" occupies cells (1,1) through (4,4) inclusive.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from typing import NamedTuple


class Point(NamedTuple):
    """A single cell location ``(x, y)``; 1-based in paper coordinates."""

    x: int
    y: int

    def translated(self, dx: int, dy: int) -> "Point":
        """Return the point shifted by ``(dx, dy)``."""
        return Point(self.x + dx, self.y + dy)

    def manhattan_distance(self, other: "Point") -> int:
        """Return the Manhattan (L1) distance to *other*.

        This is the natural droplet-transport metric on the array: a
        droplet moves one cell per actuation step, horizontally or
        vertically.
        """
        return abs(self.x - other.x) + abs(self.y - other.y)

    def neighbors4(self) -> tuple["Point", "Point", "Point", "Point"]:
        """Return the four edge-adjacent cells (may fall outside an array)."""
        return (
            Point(self.x + 1, self.y),
            Point(self.x - 1, self.y),
            Point(self.x, self.y + 1),
            Point(self.x, self.y - 1),
        )


@dataclass(frozen=True, order=True)
class Rect:
    """Axis-aligned rectangle of cells with bottom-left origin ``(x, y)``."""

    x: int
    y: int
    width: int
    height: int

    def __post_init__(self) -> None:
        if self.width < 1 or self.height < 1:
            raise ValueError(
                f"Rect dimensions must be >= 1, got {self.width}x{self.height}"
            )

    # -- derived coordinates -------------------------------------------------

    @property
    def x2(self) -> int:
        """Rightmost covered column (inclusive)."""
        return self.x + self.width - 1

    @property
    def y2(self) -> int:
        """Topmost covered row (inclusive)."""
        return self.y + self.height - 1

    @property
    def area(self) -> int:
        """Number of cells covered."""
        return self.width * self.height

    @property
    def center(self) -> Point:
        """Cell nearest the geometric center (rounded down)."""
        return Point(self.x + (self.width - 1) // 2, self.y + (self.height - 1) // 2)

    # -- predicates ----------------------------------------------------------

    def contains_point(self, p: Point | tuple[int, int]) -> bool:
        """True if cell *p* lies inside this rectangle."""
        px, py = p
        return self.x <= px <= self.x2 and self.y <= py <= self.y2

    def intersects(self, other: "Rect") -> bool:
        """True if the two rectangles share at least one cell."""
        return not (
            other.x > self.x2
            or other.x2 < self.x
            or other.y > self.y2
            or other.y2 < self.y
        )

    # -- combinators ----------------------------------------------------------

    def intersection(self, other: "Rect") -> "Rect | None":
        """Return the overlapping sub-rectangle, or ``None`` if disjoint."""
        x1 = max(self.x, other.x)
        y1 = max(self.y, other.y)
        x2 = min(self.x2, other.x2)
        y2 = min(self.y2, other.y2)
        if x2 < x1 or y2 < y1:
            return None
        return Rect(x1, y1, x2 - x1 + 1, y2 - y1 + 1)

    def overlap_area(self, other: "Rect") -> int:
        """Number of cells shared with *other* (0 if disjoint)."""
        inter = self.intersection(other)
        return inter.area if inter is not None else 0

    def translated(self, dx: int, dy: int) -> "Rect":
        """Return a copy shifted by ``(dx, dy)``."""
        return Rect(self.x + dx, self.y + dy, self.width, self.height)

    def moved_to(self, x: int, y: int) -> "Rect":
        """Return a copy with the same size but origin ``(x, y)``."""
        return Rect(x, y, self.width, self.height)

    def rotated(self) -> "Rect":
        """Return a copy with width and height swapped (same origin)."""
        return Rect(self.x, self.y, self.height, self.width)

    def inset(self, margin: int) -> "Rect":
        """Shrink by *margin* cells on every side.

        Used to derive a module's functional region from its footprint
        (the segregation ring is one cell wide).
        """
        if self.width <= 2 * margin or self.height <= 2 * margin:
            raise ValueError(
                f"cannot inset {self.width}x{self.height} rect by {margin}"
            )
        return Rect(
            self.x + margin,
            self.y + margin,
            self.width - 2 * margin,
            self.height - 2 * margin,
        )

    def expanded(self, margin: int) -> "Rect":
        """Grow by *margin* cells on every side."""
        return Rect(
            self.x - margin,
            self.y - margin,
            self.width + 2 * margin,
            self.height + 2 * margin,
        )

    # -- iteration -------------------------------------------------------------

    def cells(self) -> Iterator[Point]:
        """Yield every covered cell, column-major within each row."""
        for yy in range(self.y, self.y + self.height):
            for xx in range(self.x, self.x + self.width):
                yield Point(xx, yy)

    def __str__(self) -> str:
        return f"{self.width}x{self.height}@({self.x},{self.y})"
