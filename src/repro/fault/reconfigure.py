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

from repro.fault.mer import find_maximal_empty_rectangles
from repro.geometry import Point, Rect
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

    Parameters
    ----------
    allow_rotation:
        Whether a relocated module may be placed transposed. Virtual
        modules have no preferred orientation, so this defaults to True;
        the A5 ablation benchmark turns it off.

    Among the feasible targets, the one closest (Manhattan) to the old
    origin wins: it minimizes droplet migration distance during the
    on-line move.
    """

    def __init__(self, allow_rotation: bool = True) -> None:
        self.allow_rotation = allow_rotation

    # -- queries ------------------------------------------------------------------

    def affected_modules(
        self,
        placement: Placement,
        faulty_cells: Iterable[Point],
        at_time: float | None = None,
    ) -> list[PlacedModule]:
        """Modules whose footprint contains a faulty cell.

        With *at_time*, only modules operating at that instant are
        considered (the on-line case); otherwise any module that would
        ever touch the cell is affected (the design-time case the FTI
        evaluates).
        """
        faults = list(faulty_cells)
        out = []
        for pm in placement:
            if at_time is not None and not pm.interval.contains_time(at_time):
                continue
            if any(pm.footprint.contains_point(f) for f in faults):
                out.append(pm)
        return out

    def find_target(
        self,
        placement: Placement,
        pm: PlacedModule,
        faulty_cells: Iterable[Point],
        width: int | None = None,
        height: int | None = None,
    ) -> PlacedModule:
        """Find a new site for *pm* avoiding *faulty_cells*.

        Obstacles are the footprints of every module whose time span
        overlaps *pm*'s, plus the faulty cells; *pm*'s own old cells are
        reusable. Follows the paper's MER procedure: enumerate maximal
        empty rectangles of the obstacle grid and place the module in
        one, choosing the candidate nearest the old origin.

        Raises :class:`ReconfigurationError` when no site exists.
        """
        w = width if width is not None else placement.core_width
        h = height if height is not None else placement.core_height
        faults = [f for f in faulty_cells]
        grid = placement.occupancy_for_span(
            pm.interval, exclude=pm.op_id, width=w, height=h, extra_occupied=faults
        )
        mers = find_maximal_empty_rectangles(grid)
        candidates = list(self._candidate_sites(pm, mers))
        if not candidates:
            raise ReconfigurationError(
                f"no fault-free site for module {pm.op_id} "
                f"({pm.spec.footprint_width}x{pm.spec.footprint_height}) on "
                f"{w}x{h} array avoiding {sorted(faults)}"
            )
        old = Point(pm.x, pm.y)
        chosen = min(
            candidates,
            key=lambda c: (
                old.manhattan_distance(Point(c[0], c[1])),
                c[2],  # prefer keeping the original orientation
                c[1],
                c[0],
            ),
        )
        x, y, rotated = chosen
        return pm.moved_to(x, y, rotated=rotated)

    def _candidate_sites(self, pm: PlacedModule, mers: list[Rect]):
        """Yield (x, y, rotated) sites: each MER contributes every origin
        at which the module fits inside it."""
        orientations = [False]
        if self.allow_rotation and not pm.spec.is_square:
            orientations.append(True)
        seen = set()
        for mer in mers:
            for rotated in orientations:
                mw, mh = pm.spec.dims(rotated)
                if mer.width < mw or mer.height < mh:
                    continue
                for y in range(mer.y, mer.y2 - mh + 2):
                    for x in range(mer.x, mer.x2 - mw + 2):
                        key = (x, y, rotated)
                        if key in seen:
                            continue
                        seen.add(key)
                        yield key

    # -- top-level entry point ---------------------------------------------------------

    def apply(
        self,
        placement: Placement,
        faulty_cell: Point | tuple[int, int],
        at_time: float | None = None,
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
            self.affected_modules(placement, [fault], at_time=at_time),
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
