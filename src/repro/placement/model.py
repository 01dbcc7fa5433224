"""Placement data model: modules pinned to time planes, free in (x, y).

The paper reduces 3-D packing to a *modified 2-D placement* (Figure 2):
architectural-level synthesis fixes each module's time span, so a
placement only decides each module's (x, y) origin and orientation
inside a bounded *core area*. Two modules conflict when their time
spans overlap AND their footprints intersect; the annealer's overlap
penalty is the total conflict volume in cell-seconds.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass, replace
from functools import cached_property

from repro.geometry import Box, Interval, Rect
from repro.modules.module import ModuleSpec
from repro.util.errors import PlacementError

#: Default electrode pitch in millimetres (paper Table 1 footnote).
DEFAULT_PITCH_MM = 1.5


@dataclass(frozen=True)
class PlacedModule:
    """One operation's module instance pinned in space and time."""

    #: Operation id this module is bound to (e.g. ``"M3"``).
    op_id: str
    spec: ModuleSpec
    #: Bottom-left cell of the footprint (1-based paper coordinates).
    x: int
    y: int
    #: Operation time span, fixed by the schedule.
    start: float
    stop: float
    #: True if the footprint is rotated 90 degrees (width/height swapped).
    rotated: bool = False

    # cached_property is sound on this frozen dataclass: every mutation
    # path (moved_to / dataclasses.replace) builds a fresh instance, so
    # the cache can never go stale. The annealer touches footprints
    # millions of times per run; caching them is a ~5x cost-loop win.
    @cached_property
    def footprint(self) -> Rect:
        """The cells occupied, segregation ring included."""
        return self.spec.footprint_at(self.x, self.y, self.rotated)

    @cached_property
    def functional_region(self) -> Rect:
        """The working electrodes inside the segregation ring."""
        return self.spec.functional_at(self.x, self.y, self.rotated)

    @cached_property
    def interval(self) -> Interval:
        """The operation span as a half-open interval."""
        return Interval(self.start, self.stop)

    @property
    def box(self) -> Box:
        """The 3-D packing box of paper Figure 2."""
        return Box(self.footprint, self.interval)

    @property
    def dims(self) -> tuple[int, int]:
        """Current footprint ``(width, height)``."""
        return self.spec.dims(self.rotated)

    def moved_to(self, x: int, y: int, rotated: bool | None = None) -> "PlacedModule":
        """Return a copy at a new origin (optionally re-oriented)."""
        rot = self.rotated if rotated is None else rotated
        return replace(self, x=x, y=y, rotated=rot)

    def conflicts(self, other: "PlacedModule") -> bool:
        """True if the two modules overlap in space and time."""
        return self.box.conflicts(other.box)

    def conflict_volume(self, other: "PlacedModule") -> float:
        """Shared cell-seconds with *other* (the overlap penalty unit)."""
        return self.box.conflict_volume(other.box)

    def __str__(self) -> str:
        rot = "R" if self.rotated else ""
        return f"{self.op_id}:{self.spec.name}{rot}@({self.x},{self.y})[{self.start:g},{self.stop:g})"


class Placement:
    """A (possibly partial, possibly overlapping) module placement.

    The annealer deliberately explores *infeasible* placements — the
    overlap penalty in the cost function drives them out — so this class
    stores whatever configuration it is given and exposes feasibility
    checks rather than enforcing them on mutation.

    The *core area* is the ``core_width x core_height`` region modules
    may occupy (paper Figure 4(a)); the *bounding array* is the tight
    rectangle around the modules actually placed, whose cell count is
    the paper's area metric.
    """

    def __init__(
        self,
        core_width: int,
        core_height: int,
        modules: Iterable[PlacedModule] = (),
        pitch_mm: float = DEFAULT_PITCH_MM,
    ) -> None:
        if core_width < 1 or core_height < 1:
            raise ValueError(
                f"core area must be >= 1x1, got {core_width}x{core_height}"
            )
        self.core_width = core_width
        self.core_height = core_height
        self.pitch_mm = pitch_mm
        self._modules: dict[str, PlacedModule] = {}
        for pm in modules:
            self.add(pm)

    # -- container interface -----------------------------------------------------

    def add(self, pm: PlacedModule) -> None:
        """Insert a module; op ids must be unique and stay in the core."""
        if pm.op_id in self._modules:
            raise PlacementError(f"duplicate placed module for op {pm.op_id!r}")
        self._require_in_core(pm)
        self._modules[pm.op_id] = pm

    def replace(self, pm: PlacedModule) -> None:
        """Substitute the module for ``pm.op_id`` (must already exist)."""
        if pm.op_id not in self._modules:
            raise PlacementError(f"no placed module for op {pm.op_id!r}")
        self._require_in_core(pm)
        self._modules[pm.op_id] = pm

    def get(self, op_id: str) -> PlacedModule:
        """Look up a module by operation id."""
        try:
            return self._modules[op_id]
        except KeyError:
            raise PlacementError(f"no placed module for op {op_id!r}") from None

    def __contains__(self, op_id: str) -> bool:
        return op_id in self._modules

    def __len__(self) -> int:
        return len(self._modules)

    def __iter__(self) -> Iterator[PlacedModule]:
        return iter(self._modules.values())

    def modules(self) -> list[PlacedModule]:
        """All placed modules, in insertion order."""
        return list(self._modules.values())

    def op_ids(self) -> list[str]:
        """All operation ids, in insertion order."""
        return list(self._modules)

    def copy(self) -> "Placement":
        """Shallow copy (PlacedModule is immutable, so this is safe)."""
        out = Placement(self.core_width, self.core_height, pitch_mm=self.pitch_mm)
        out._modules = dict(self._modules)
        return out

    def _require_in_core(self, pm: PlacedModule) -> None:
        fp = pm.footprint
        if fp.x < 1 or fp.y < 1 or fp.x2 > self.core_width or fp.y2 > self.core_height:
            raise PlacementError(
                f"module {pm} footprint {fp} outside "
                f"{self.core_width}x{self.core_height} core area"
            )

    # -- area metrics ---------------------------------------------------------------

    def bounding_box(self) -> Rect:
        """Tight rectangle around all footprints.

        Raises :class:`PlacementError` when empty — an empty placement
        has no meaningful area.
        """
        if not self._modules:
            raise PlacementError("empty placement has no bounding box")
        footprints = [pm.footprint for pm in self._modules.values()]
        x1 = min(fp.x for fp in footprints)
        y1 = min(fp.y for fp in footprints)
        x2 = max(fp.x2 for fp in footprints)
        y2 = max(fp.y2 for fp in footprints)
        return Rect(x1, y1, x2 - x1 + 1, y2 - y1 + 1)

    def array_dims(self) -> tuple[int, int]:
        """``(width, height)`` of the bounding array."""
        bb = self.bounding_box()
        return bb.width, bb.height

    @property
    def area_cells(self) -> int:
        """Bounding-array area in cells — the paper's primary metric."""
        return self.bounding_box().area

    @property
    def area_mm2(self) -> float:
        """Bounding-array area in mm^2 at this placement's cell pitch."""
        return self.area_cells * self.pitch_mm * self.pitch_mm

    # -- feasibility -------------------------------------------------------------------

    def conflicting_pairs(self) -> list[tuple[PlacedModule, PlacedModule]]:
        """All module pairs that overlap in space and time, in insertion
        order (by first module, then second).

        Same primitive-coordinate kernel as :meth:`overlap_volume` —
        no per-pair Box/Rect combinator churn. The pairs are swept in
        start order, so each module meets only the modules that start
        before it stops.
        """
        mods = list(self._modules.values())
        data = [
            (pm.footprint.x, pm.footprint.y, pm.footprint.x2, pm.footprint.y2,
             pm.start, pm.stop)
            for pm in mods
        ]
        order = sorted(range(len(data)), key=lambda i: data[i][4])
        found = []
        for k, i in enumerate(order):
            ax1, ay1, ax2, ay2, as_, ae = data[i]
            for j in order[k + 1:]:
                bx1, by1, bx2, by2, bs, be = data[j]
                if bs >= ae:
                    break  # every later module starts after this one stops
                if (
                    min(ae, be) - bs > 0
                    and min(ax2, bx2) - max(ax1, bx1) >= 0
                    and min(ay2, by2) - max(ay1, by1) >= 0
                ):
                    found.append((i, j) if i < j else (j, i))
        found.sort()
        return [(mods[i], mods[j]) for i, j in found]

    def overlap_volume(self) -> float:
        """Total pairwise conflict volume in cell-seconds (0 == feasible).

        This is the annealer's hottest function; it works on primitive
        coordinates rather than the Box/Rect combinators to avoid
        per-pair object churn (same arithmetic as Box.conflict_volume).
        """
        mods = list(self._modules.values())
        data = [
            (pm.footprint.x, pm.footprint.y, pm.footprint.x2, pm.footprint.y2,
             pm.start, pm.stop)
            for pm in mods
        ]
        total = 0.0
        n = len(data)
        for i in range(n):
            ax1, ay1, ax2, ay2, as_, ae = data[i]
            for j in range(i + 1, n):
                bx1, by1, bx2, by2, bs, be = data[j]
                dt = min(ae, be) - max(as_, bs)
                if dt <= 0:
                    continue
                ox = min(ax2, bx2) - max(ax1, bx1) + 1
                if ox <= 0:
                    continue
                oy = min(ay2, by2) - max(ay1, by1) + 1
                if oy <= 0:
                    continue
                total += ox * oy * dt
        return total

    def is_feasible(self) -> bool:
        """True if no two concurrently active modules share a cell."""
        return self.overlap_volume() == 0.0

    def validate(self) -> None:
        """Raise :class:`PlacementError` describing the first conflict, if any."""
        pairs = self.conflicting_pairs()
        if pairs:
            a, b = pairs[0]
            raise PlacementError(
                f"{len(pairs)} conflicting pair(s); first: {a} overlaps {b}"
            )

    # -- temporal structure -------------------------------------------------------------

    def time_planes(self) -> list[float]:
        """Sorted distinct module start times (the cutting planes of Fig 2)."""
        return sorted({pm.start for pm in self._modules.values()})

    def event_times(self) -> list[float]:
        """Sorted distinct start/stop times (configuration change instants)."""
        times = {pm.start for pm in self._modules.values()}
        times.update(pm.stop for pm in self._modules.values())
        return sorted(times)

    def active_at(self, t: float) -> list[PlacedModule]:
        """Modules whose span contains instant *t*."""
        return [pm for pm in self._modules.values() if pm.interval.contains_time(t)]

    def overlapping_span(
        self, interval: Interval, exclude: str | None = None
    ) -> list[PlacedModule]:
        """Modules whose span overlaps *interval*, optionally excluding one op."""
        return [
            pm
            for pm in self._modules.values()
            if pm.op_id != exclude and pm.interval.overlaps(interval)
        ]

    def makespan(self) -> float:
        """Latest stop time (0 for an empty placement)."""
        return max((pm.stop for pm in self._modules.values()), default=0.0)

    # -- normalization -----------------------------------------------------------------------

    def normalized(self) -> "Placement":
        """Translate all modules so the bounding box origin is (1, 1).

        The bounding array then *is* the array to manufacture; FTI is
        computed over exactly these dimensions.
        """
        bb = self.bounding_box()
        dx, dy = 1 - bb.x, 1 - bb.y
        out = Placement(bb.width, bb.height, pitch_mm=self.pitch_mm)
        for pm in self._modules.values():
            out.add(pm.moved_to(pm.x + dx, pm.y + dy))
        return out

    def __str__(self) -> str:
        dims = "empty" if not self._modules else "%dx%d" % self.array_dims()
        return (
            f"Placement({len(self._modules)} modules, array {dims}, "
            f"core {self.core_width}x{self.core_height})"
        )
