"""Reference occupancy grids: the oracles for the packed TimeGrid.

:class:`ReferenceTimeGrid` is the straightforward implementation the
packed :class:`~repro.routing.timegrid.TimeGrid` replaced on the hot
path: cells are :class:`~repro.geometry.Point` objects, per-step halos
live in nested ``step -> cell -> entries`` dicts, and every reservation
is materialized step by step out to the horizon. It is kept — bit-for-
bit semantics included — for three jobs:

* the **equivalence oracle**: property tests drive both grids with the
  same obstacle/reservation soup and assert identical ``blocked()`` /
  ``static_blocked()`` answers on every in-bounds cell
  (:func:`reserved_blocked` asks the packed grid's compiled store one
  reservation query, and :func:`blocked` composes the packed grid's
  answer the way its search does);
* the **benchmark baseline**: ``bench_routing_engine.py`` measures the
  packed engine's routed-nets/sec against this grid plus the full-round
  negotiation of :class:`oracles.routing.ReferenceRouter`;
* the shadow inside :class:`CrossCheckTimeGrid`, which mirrors every
  mutation into both grids and asserts parity on every single query.

Answers are defined on the array: queries about off-array cells are
compared nowhere (the router never asks about them — ``in_bounds``
gates every expansion).
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.geometry import Point, Rect
from repro.routing.plan import Net, RoutedNet
from repro.routing.timegrid import GridShape, TimeGrid
from repro.util.errors import RoutingError


def reserved_blocked(grid, cell: Point, step: int, net: Net) -> bool:
    """True if another droplet's halo or parked tail covers (*cell*,
    *step*) for *net*, honoring the two-sided merge/split exemptions:
    a :class:`ReferenceTimeGrid`'s own answer, or the packed grid's
    compiled store's, the query its search makes of every state it
    expands. Off-array cells carry no reservation."""
    if not isinstance(grid, TimeGrid):
        return grid.reserved_blocked(cell, step, net)
    if not grid.in_bounds(cell):
        return False
    return bool(grid._kernel.route_blocked(
        grid._store, grid.pack(cell), step, *grid._args(net)
    ))


def blocked(grid: TimeGrid, cell: Point, step: int, net: Net) -> bool:
    """Full occupancy query for *net* at (*cell*, *step*) on the packed
    *grid*: the rule the compiled search inlines, which
    :meth:`ReferenceTimeGrid.blocked` states for the reference grid (a
    net's own source cell is grandfathered against parked halos and
    reservations)."""
    if cell == net.source:
        return grid.static_blocked(cell, net.exempt_ops, ignore_parked_halo=True)
    return grid.static_blocked(cell, net.exempt_ops) or reserved_blocked(
        grid, cell, step, net
    )


class ReferenceTimeGrid:
    """Per-timestep obstacle sets over a ``width x height`` cell array.

    Same public API and semantics as :class:`TimeGrid`, implemented with
    plain ``Point``-keyed dictionaries (no packing, no incremental
    tail bookkeeping).
    """

    def __init__(self, width: int, height: int, shape: GridShape | None = None) -> None:
        # *shape* is accepted for the synthesizer's grid_factory call
        # and ignored: this grid keeps no packed tables.
        if width < 1 or height < 1:
            raise ValueError(f"array dimensions must be >= 1, got {width}x{height}")
        self.width = width
        self.height = height
        self._faulty: set[Point] = set()
        self._parked: set[Point] = set()
        self._parked_halo: set[Point] = set()
        #: cell -> owner op ids whose active footprints cover it.
        self._module_cells: dict[Point, set[str]] = {}
        #: op id -> exemption rects (merge/split zones accumulate: a
        #: relocated plug adds its spot without losing the footprint).
        self._regions: dict[str, list[Rect]] = {}
        #: step -> cell -> [(net_id, producer, consumer, prod_in,
        #: cons_in), ...] halo entries; the flags record whether the
        #: droplet position that produced the entry lies inside the
        #: producer's/consumer's zone (two-sided exemption rule).
        self._halo: dict[
            int, dict[Point, list[tuple[str, str | None, str | None, bool, bool]]]
        ] = {}
        #: net_id -> (step, cell) keys for O(path) removal.
        self._net_keys: dict[str, list[tuple[int, Point]]] = {}

    # -- static obstacles ----------------------------------------------------

    def in_bounds(self, p: Point) -> bool:
        return 1 <= p.x <= self.width and 1 <= p.y <= self.height

    def add_faulty(self, cells: Iterable[Point | tuple[int, int]]) -> None:
        """Mark cells permanently unusable (defective electrodes)."""
        self._faulty.update(Point(*c) for c in cells)

    def add_parked(self, cells: Iterable[Point | tuple[int, int]]) -> None:
        """Mark parked droplets: the cell plus its one-cell fluidic halo."""
        for c in cells:
            p = Point(*c)
            self._parked.add(p)
            for dx in (-1, 0, 1):
                for dy in (-1, 0, 1):
                    self._parked_halo.add(Point(p.x + dx, p.y + dy))

    def add_module(self, footprint: Rect, owner: str) -> None:
        """Block *footprint* for every net not owned by *owner*; also
        registers the footprint as the owner's merge/split zone."""
        for cell in footprint.cells():
            self._module_cells.setdefault(cell, set()).add(owner)
        self.add_region(owner, footprint)

    def add_region(self, op_id: str, footprint: Rect) -> None:
        """Register a merge/split exemption zone without blocking it
        (used for producer modules that already finished). Zones
        accumulate per op — registering twice widens, never replaces."""
        rects = self._regions.setdefault(op_id, [])
        if footprint not in rects:
            rects.append(footprint)

    def in_region(self, op_id: str | None, cell: Point) -> bool:
        if op_id is None:
            return False
        return any(r.contains_point(cell) for r in self._regions.get(op_id, ()))

    def regions(self) -> tuple[tuple[str, Rect], ...]:
        """Registered (op id, zone rect) pairs, for plan bookkeeping."""
        return tuple(
            (op_id, rect)
            for op_id in sorted(self._regions)
            for rect in self._regions[op_id]
        )

    @property
    def faulty(self) -> frozenset[Point]:
        return frozenset(self._faulty)

    @property
    def parked(self) -> frozenset[Point]:
        return frozenset(self._parked)

    def static_blocked(
        self,
        cell: Point,
        exempt_ops: frozenset[str] = frozenset(),
        ignore_parked_halo: bool = False,
    ) -> bool:
        """True if *cell* is unusable regardless of timestep for a net
        that may enter the footprints of *exempt_ops*.

        *ignore_parked_halo* grandfathers a droplet's own parking spot:
        a source that happens to sit next to another parked droplet is
        where the droplet already *is* — routing can only move it away.
        """
        if cell in self._faulty:
            return True
        if not ignore_parked_halo and cell in self._parked_halo:
            return True
        owners = self._module_cells.get(cell)
        return bool(owners) and not owners <= exempt_ops

    # -- droplet reservations ------------------------------------------------

    def reserve(self, routed: RoutedNet, horizon: int) -> None:
        """Reserve a trajectory (and its post-arrival parking tail up to
        *horizon*) with the spatio-temporal fluidic halo."""
        net = routed.net
        if net.net_id in self._net_keys:
            raise ValueError(f"net {net.net_id!r} is already reserved")
        # Collect each step's halo cells first, keyed by the origin's
        # in-zone flag pair: the t-1/t/t+1 windows of consecutive steps
        # overlap, and a waiting or parked droplet would otherwise
        # insert the same (step, cell) entry three times over. Distinct
        # flag pairs stay distinct entries — the two-sided exemption is
        # per origin position.
        cells_by_step: dict[int, dict[Point, int]] = {}
        for t in range(horizon + 1):
            p = routed.position_at(t)
            flags = 1 << (
                (1 if self.in_region(net.producer, p) else 0)
                | (2 if self.in_region(net.consumer, p) else 0)
            )
            halo = {
                Point(p.x + dx, p.y + dy)
                for dx in (-1, 0, 1)
                for dy in (-1, 0, 1)
            }
            for s in (t - 1, t, t + 1):
                if s >= 0:
                    per_step = cells_by_step.setdefault(s, {})
                    for c in halo:
                        per_step[c] = per_step.get(c, 0) | flags
        keys = self._net_keys.setdefault(net.net_id, [])
        net_id, producer, consumer = net.net_id, net.producer, net.consumer
        for s, flagged in cells_by_step.items():
            per_step = self._halo.setdefault(s, {})
            for c, flag_set in flagged.items():
                lst = per_step.setdefault(c, [])
                for fl in range(4):
                    if flag_set & (1 << fl):
                        lst.append(
                            (net_id, producer, consumer, bool(fl & 1), bool(fl & 2))
                        )
                keys.append((s, c))

    def remove_reservation(self, net_id: str) -> None:
        """Drop one net's reservation (re-routing during negotiation or
        compaction), pruning emptied entry lists and per-step dicts so
        negotiation-heavy epochs do not accumulate dead keys."""
        for s, c in self._net_keys.pop(net_id, ()):
            per_step = self._halo.get(s)
            if per_step is None:
                continue
            entries = per_step.get(c)
            if not entries:
                continue
            entries[:] = [e for e in entries if e[0] != net_id]
            if not entries:
                del per_step[c]
                if not per_step:
                    del self._halo[s]

    def clear_reservations(self) -> None:
        """Drop all reservations (a fresh negotiation round); static
        obstacles stay."""
        self._halo.clear()
        self._net_keys.clear()

    def reservation_footprint(self) -> int:
        """Number of live (step, cell) reservation keys currently held —
        the memory-leak regression tests assert this returns to zero
        after every reservation is removed."""
        return sum(len(per_step) for per_step in self._halo.values())

    def reserved_blocked(self, cell: Point, step: int, net: Net) -> bool:
        """True if another droplet's halo covers (*cell*, *step*) for
        this net, honoring the two-sided merge/split exemptions (both
        the queried cell and the entry's recorded origin in-zone)."""
        entries = self._halo.get(step, {}).get(cell)
        if not entries:
            return False
        for net_id, producer, consumer, prod_in, cons_in in entries:
            if net_id == net.net_id:
                continue
            if (
                cons_in
                and consumer is not None
                and consumer == net.consumer
                and self.in_region(consumer, cell)
            ):
                continue
            if (
                prod_in
                and producer is not None
                and producer == net.producer
                and self.in_region(producer, cell)
            ):
                continue
            return True
        return False

    def blocked(self, cell: Point, step: int, net: Net) -> bool:
        """Full occupancy query for *net* at (*cell*, *step*).

        A net's own source cell is grandfathered against parked halos
        *and* reservations: the droplet is already parked there, so it
        may keep waiting at home until traffic clears, even when a
        sibling was parked adjacent (a placement artifact routing can
        only resolve by eventually moving one of them away).
        """
        if cell == net.source:
            return self.static_blocked(cell, net.exempt_ops, ignore_parked_halo=True)
        return self.static_blocked(cell, net.exempt_ops) or self.reserved_blocked(
            cell, step, net
        )

    def __str__(self) -> str:
        return (
            f"ReferenceTimeGrid({self.width}x{self.height}, "
            f"{len(self._faulty)} faulty, {len(self._parked)} parked, "
            f"{len(self._net_keys)} reservations)"
        )


class CrossCheckTimeGrid:
    """A packed :class:`TimeGrid` shadowed by a :class:`ReferenceTimeGrid`.

    Every mutation is mirrored into both grids; every occupancy query is
    answered by both and the answers compared — a divergence raises
    :class:`~repro.util.errors.RoutingError` at the exact query that
    disagreed. It is not a packed grid, so the reference router takes
    its generic ``blocked()``-calling search and every A* expansion
    goes through the comparison.
    """

    def __init__(self, width: int, height: int, shape: GridShape | None = None) -> None:
        self._packed = TimeGrid(width, height, shape)
        self._shadow = ReferenceTimeGrid(width, height)
        self.width = width
        self.height = height

    # -- mirrored mutations --------------------------------------------------

    def add_faulty(self, cells: Iterable[Point | tuple[int, int]]) -> None:
        cells = [Point(*c) for c in cells]
        self._packed.add_faulty(cells)
        self._shadow.add_faulty(cells)

    def add_parked(self, cells: Iterable[Point | tuple[int, int]]) -> None:
        cells = [Point(*c) for c in cells]
        self._packed.add_parked(cells)
        self._shadow.add_parked(cells)

    def add_module(self, footprint: Rect, owner: str) -> None:
        self._packed.add_module(footprint, owner)
        self._shadow.add_module(footprint, owner)

    def add_region(self, op_id: str, footprint: Rect) -> None:
        self._packed.add_region(op_id, footprint)
        self._shadow.add_region(op_id, footprint)

    def reserve(self, routed: RoutedNet, horizon: int) -> None:
        self._packed.reserve(routed, horizon)
        self._shadow.reserve(routed, horizon)

    def remove_reservation(self, net_id: str) -> None:
        self._packed.remove_reservation(net_id)
        self._shadow.remove_reservation(net_id)

    def clear_reservations(self) -> None:
        self._packed.clear_reservations()
        self._shadow.clear_reservations()

    # -- compared queries ----------------------------------------------------

    def _compare(self, what: str, cell: Point, packed: bool, shadow: bool) -> bool:
        if packed != shadow:
            raise RoutingError(
                f"cross-check: packed grid answered {what}({cell}) = {packed} "
                f"but the reference grid answered {shadow}"
            )
        return packed

    def static_blocked(
        self,
        cell: Point,
        exempt_ops: frozenset[str] = frozenset(),
        ignore_parked_halo: bool = False,
    ) -> bool:
        return self._compare(
            "static_blocked",
            cell,
            self._packed.static_blocked(cell, exempt_ops, ignore_parked_halo),
            self._shadow.static_blocked(cell, exempt_ops, ignore_parked_halo),
        )

    def reserved_blocked(self, cell: Point, step: int, net: Net) -> bool:
        return self._compare(
            f"reserved_blocked@{step}",
            cell,
            reserved_blocked(self._packed, cell, step, net),
            self._shadow.reserved_blocked(cell, step, net),
        )

    def blocked(self, cell: Point, step: int, net: Net) -> bool:
        return self._compare(
            f"blocked@{step}",
            cell,
            blocked(self._packed, cell, step, net),
            self._shadow.blocked(cell, step, net),
        )

    # -- forwarded reads -----------------------------------------------------

    def in_bounds(self, p: Point) -> bool:
        return self._packed.in_bounds(p)

    def regions(self) -> tuple[tuple[str, Rect], ...]:
        return self._packed.regions()

    @property
    def faulty(self) -> frozenset[Point]:
        return self._packed.faulty

    @property
    def parked(self) -> frozenset[Point]:
        return self._packed.parked

    def __str__(self) -> str:
        return f"CrossCheck{self._packed}"
