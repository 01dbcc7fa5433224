"""The fabricated chip: one electrode array, fixed at synthesis.

Partial reconfiguration moves modules on a fabricated array
(arXiv:0710.4673) whose spare cells are built with it (arXiv:0710.4672).
:meth:`Chip.of` derives it once from the nominal placement; the router,
the simulator and recovery read it. Placement cell ``(x, y)`` is chip
cell ``(x + margin, y + margin)``: plans and replays work in chip cells.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.geometry import Point
from repro.placement.model import Placement

#: Routing lanes around the core, per side: without them, modules on the
#: core edge wall droplets into unroutable pockets.
MARGIN = 2


@dataclass(frozen=True)
class Chip:
    """A ``width x height`` electrode array: a synthesized core padded by
    *margin* routing lanes on every side."""

    width: int
    height: int
    margin: int

    @classmethod
    def of(cls, placement: Placement) -> Chip:
        """The chip around *placement*'s core (a placer's normalized
        result: its bounding array)."""
        pad = 2 * MARGIN
        return cls(placement.core_width + pad, placement.core_height + pad, MARGIN)

    def cell(self, p: Point | tuple[int, int]) -> Point:
        """The chip cell under placement cell *p*."""
        return Point(p[0] + self.margin, p[1] + self.margin)

    def embed(self, placement: Placement) -> Placement:
        """*placement*'s modules in chip cells, on the whole array."""
        out = Placement(self.width, self.height, pitch_mm=placement.pitch_mm)
        for pm in placement:
            out.add(pm.moved_to(*self.cell((pm.x, pm.y))))
        return out

    @property
    def extent(self) -> tuple[range, range]:
        """The chip's columns and rows, in placement coordinates."""
        m = self.margin
        return range(1 - m, self.width - m + 1), range(1 - m, self.height - m + 1)

    @property
    def dispense_ports(self) -> tuple[Point, ...]:
        """Reservoirs, every other cell of the left edge (chip cells)."""
        return tuple(Point(1, y) for y in range(1, self.height + 1, 2))

    @property
    def output_port(self) -> Point:
        """Where the product leaves: the right edge, mid-height."""
        return Point(self.width, max(1, self.height // 2))

    def claimable(self, placement: Placement) -> Placement:
        """A copy of *placement* on the cells recovery may claim, in the
        same coordinates: the core plus the margin's right and top lanes."""
        w, h = self.width - self.margin, self.height - self.margin
        return Placement(w, h, modules=placement, pitch_mm=placement.pitch_mm)

    @property
    def reserved(self) -> tuple[Point, ...]:
        """Port cells no recovered module may cover, in placement
        coordinates: the output port, on the claimable right lane (the
        reservoirs' left lane is never claimable)."""
        p, m = self.output_port, self.margin
        return (Point(p.x - m, p.y - m),)
