"""Module specifications: functional region + segregation ring.

Table 1 of the paper binds each PCR mix operation to a hardware
configuration such as a "2x2 electrode array" that occupies "4x4 cells":
the 2x2 *functional region* where the droplets circulate, wrapped by a
one-cell *segregation region* on every side (2 + 1 + 1 = 4). The
segregation ring isolates the module from neighboring droplets and
doubles as a droplet transport path.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.geometry import Rect
from repro.modules.kinds import ModuleKind

#: Width of the segregation ring, in cells, on each side of the
#: functional region. The paper's Table 1 footprints all correspond to a
#: one-cell ring.
SEGREGATION_MARGIN = 1


@dataclass(frozen=True)
class ModuleSpec:
    """An entry of the module library.

    A spec is *virtual hardware*: any ``footprint_width x
    footprint_height`` group of healthy cells can host it, in either
    orientation. ``duration_s`` is the nominal operation time measured
    on real chips (Paik et al. [18] for the mixers).
    """

    name: str
    kind: ModuleKind
    #: Electrodes of the functional region, e.g. 2x2 for the fast mixer.
    functional_width: int
    functional_height: int
    #: Nominal operation duration in seconds.
    duration_s: float
    #: Free-text hardware description as it appears in the paper's Table 1.
    hardware: str = ""

    def __post_init__(self) -> None:
        if self.functional_width < 1 or self.functional_height < 1:
            raise ValueError(
                f"functional region must be >= 1x1, got "
                f"{self.functional_width}x{self.functional_height}"
            )
        if self.duration_s <= 0:
            raise ValueError(f"duration must be positive, got {self.duration_s}")

    # -- footprint geometry ------------------------------------------------------

    @property
    def footprint_width(self) -> int:
        """Cells spanned horizontally, including the segregation ring."""
        return self.functional_width + 2 * SEGREGATION_MARGIN

    @property
    def footprint_height(self) -> int:
        """Cells spanned vertically, including the segregation ring."""
        return self.functional_height + 2 * SEGREGATION_MARGIN

    @property
    def footprint_area(self) -> int:
        """Total cells occupied (the paper's module area unit)."""
        return self.footprint_width * self.footprint_height

    @property
    def is_square(self) -> bool:
        """True if rotation does not change the footprint."""
        return self.footprint_width == self.footprint_height

    def footprint_at(self, x: int, y: int, rotated: bool = False) -> Rect:
        """The footprint rectangle with bottom-left cell at ``(x, y)``."""
        w, h = self.footprint_width, self.footprint_height
        if rotated:
            w, h = h, w
        return Rect(x, y, w, h)

    def functional_at(self, x: int, y: int, rotated: bool = False) -> Rect:
        """The functional region inside :meth:`footprint_at`."""
        return self.footprint_at(x, y, rotated).inset(SEGREGATION_MARGIN)

    def dims(self, rotated: bool = False) -> tuple[int, int]:
        """Footprint ``(width, height)``, swapped when rotated."""
        if rotated:
            return self.footprint_height, self.footprint_width
        return self.footprint_width, self.footprint_height

    def __str__(self) -> str:
        return (
            f"{self.name} ({self.hardware or self.kind.value}, "
            f"{self.footprint_width}x{self.footprint_height} cells, "
            f"{self.duration_s:g} s)"
        )
