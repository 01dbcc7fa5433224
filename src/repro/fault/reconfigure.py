"""Partial reconfiguration: on-line relocation of a faulty module.

Paper Section 5.1: when a cell fails during operation, the module
containing it is relocated "by changing the control voltages applied to
the corresponding electrodes", leaving every other module untouched —
which is why a fast local algorithm suffices for field operation. This
engine implements that algorithm: find the affected module(s), find a
fault-free region that accommodates each, and emit an updated
placement together with a relocation record the controller (or the
simulator in :mod:`repro.sim`) can execute.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.geometry import Point
from repro.grid.bitboard import Bitboard
from repro.util.errors import ReconfigurationError

if TYPE_CHECKING:  # placement imports fault's cost hooks; avoid the cycle
    from repro.placement.model import PlacedModule, Placement

@dataclass(frozen=True)
class Relocation:
    """One module's move from its old site to its new site."""

    op_id: str
    old: PlacedModule
    new: PlacedModule

    @property
    def distance(self) -> int:
        """Manhattan distance between old and new origins (migration cost)."""
        return Point(self.old.x, self.old.y).manhattan_distance(
            Point(self.new.x, self.new.y)
        )

    def __str__(self) -> str:
        return f"{self.op_id}: {self.old.footprint} -> {self.new.footprint}"


@dataclass(frozen=True)
class ReconfigurationPlan:
    """Outcome of a partial reconfiguration request."""

    faulty_cells: frozenset[Point]
    relocations: tuple[Relocation, ...]
    #: Modules that contained no faulty cell and were left in place.
    untouched: tuple[str, ...] = field(default=())

    @property
    def moved_ops(self) -> tuple[str, ...]:
        """Operation ids that were relocated."""
        return tuple(r.op_id for r in self.relocations)

    @property
    def total_migration_distance(self) -> int:
        """Sum of relocation distances (droplet transport cost proxy)."""
        return sum(r.distance for r in self.relocations)


class PartialReconfigurer:
    """Relocates modules away from faulty cells.

    A relocated module may be placed transposed: virtual modules have
    no preferred orientation. Among the feasible targets, the one
    closest (Manhattan) to the old origin wins: it minimizes droplet
    migration distance during the on-line move.
    """

    # -- queries ------------------------------------------------------------------

    def affected_modules(
        self,
        placement: Placement,
        faulty_cells: Iterable[Point],
    ) -> list[PlacedModule]:
        """Modules whose footprint contains a faulty cell, at any time."""
        faults = list(faulty_cells)
        return [
            pm for pm in placement
            if any(pm.footprint.contains_point(f) for f in faults)
        ]

    def find_target(
        self,
        placement: Placement,
        pm: PlacedModule,
        faulty_cells: Iterable[Point],
    ) -> PlacedModule:
        """Find a new site for *pm* avoiding *faulty_cells*.

        Obstacles are the footprints of every module whose time span
        overlaps *pm*'s, plus the faulty cells; *pm*'s own old cells are
        reusable. The free cells are one bitboard of the core, and each
        orientation's sites are that mask eroded to the window: exactly
        the origins at which the module fits inside some maximal empty
        rectangle, the paper's Section 5.3 test. The site nearest the
        old origin wins; among equals the native orientation, then the
        lowest row, then the leftmost column.

        Raises :class:`ReconfigurationError` when no site exists.
        """
        w, h = placement.core_width, placement.core_height
        faults = list(faulty_cells)
        board = Bitboard(w, h)
        blocked = board.cover(
            o.footprint
            for o in placement.overlapping_span(pm.interval, exclude=pm.op_id)
        )
        for x, y in faults:
            blocked |= board.rect(x, y, x, y)
        free = board.inside & ~blocked
        sites = []
        for rotated in (False,) if pm.spec.is_square else (False, True):
            origins = board.origins(free, *pm.spec.dims(rotated))
            if origins:
                x, y = board.nearest(origins, pm.x, pm.y)
                sites.append((abs(x - pm.x) + abs(y - pm.y), rotated, y, x))
        if not sites:
            raise ReconfigurationError(
                f"no fault-free site for module {pm.op_id} "
                f"({pm.spec.footprint_width}x{pm.spec.footprint_height}) on "
                f"{w}x{h} array avoiding {sorted(faults)}"
            )
        _, rotated, y, x = min(sites)
        return pm.moved_to(x, y, rotated=rotated)

    # -- top-level entry point ---------------------------------------------------------

    def apply(
        self,
        placement: Placement,
        faulty_cell: Point | tuple[int, int],
        extra_faults: Iterable[Point] = (),
        only_ops: Iterable[str] | None = None,
    ) -> tuple[Placement, ReconfigurationPlan]:
        """Relocate every module affected by *faulty_cell*.

        Modules are processed in start-time order and each relocation is
        committed before the next module is analyzed, so two affected
        modules (necessarily on disjoint time spans) cannot be assigned
        conflicting sites. *extra_faults* lists previously known faulty
        cells that every new site must also avoid — the multi-fault
        extension of the paper's single-fault model. *only_ops*, when
        given, restricts relocation to those operations (an on-line
        controller only rescues modules that have not finished).

        Returns the updated placement and the plan; raises
        :class:`ReconfigurationError` if any affected module cannot move.
        """
        fault = Point(*faulty_cell)
        all_faults = [fault, *extra_faults]
        affected = sorted(
            self.affected_modules(placement, [fault]),
            key=lambda pm: (pm.start, pm.op_id),
        )
        if only_ops is not None:
            allowed = set(only_ops)
            affected = [pm for pm in affected if pm.op_id in allowed]
        updated = placement.copy()
        relocations = []
        for pm in affected:
            new_pm = self.find_target(updated, pm, all_faults)
            updated.replace(new_pm)
            relocations.append(Relocation(op_id=pm.op_id, old=pm, new=new_pm))
        untouched = tuple(
            op_id for op_id in placement.op_ids()
            if op_id not in {r.op_id for r in relocations}
        )
        plan = ReconfigurationPlan(
            faulty_cells=frozenset(all_faults),
            relocations=tuple(relocations),
            untouched=untouched,
        )
        return updated, plan
