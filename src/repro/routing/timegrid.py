"""Time-expanded occupancy grid for concurrent droplet routing.

The grid answers one question for the prioritized router: *may net N's
droplet occupy cell C at timestep T?* Obstacles come in two flavors:

* **static** (per epoch) — faulty cells, parked product droplets (with
  their one-cell fluidic halo), and the footprints of modules active
  during the epoch. Module cells are passable only to nets owned by
  that module (a droplet must enter its consumer, and leaves from
  inside its producer).
* **reservations** — trajectories of already-routed in-flight droplets.
  Each occupied position blocks its 3x3 neighborhood at the step
  itself and the two adjacent steps, which enforces both the static
  fluidic constraint (one empty cell between droplets) and the dynamic
  one (no moving next to where another droplet just was, so no swaps
  or head-on passes). After arrival a droplet keeps its goal cell
  reserved to the horizon — it is now an operand parked at its module.

Reservations carry their net's producer/consumer so that merge and
split exemptions apply: droplets feeding the same consumer ignore each
other inside that consumer's footprint, and shares split from the same
producer ignore each other inside the producer's footprint. The
exemption is **two-sided**, exactly like the plan verifier's rule: each
halo entry records whether the droplet position that *produced* it lies
inside the shared zone, and an exemption is granted only when both the
queried cell and that recorded origin are in-zone. (Historically the
grid only checked the queried cell, which let a merge approach straddle
the zone boundary and emit plans the verifier rejected.)

**Compiled store.** A grid keeps its reservations in a C
``route_store`` (``_route.c``, loaded by :func:`repro.kernels.load`): a
cell is the flat integer index ``(y-1)*width + (x-1)``, halo entries
are listed per key ``step*area + idx`` (the router's search states),
and static obstacles are preclassified into a per-cell byte mask
(FAULTY / PARKED_HALO / MODULE bits) that the store shares with the
grid, uncopied, as it does the per-cell module owners. Two structures
make reservations cheap:

* the **parked tail** — after arrival a droplet blocks its goal halo
  for *every* remaining step, so instead of materializing
  ``O(horizon)`` per-step entries the tail is stored once per cell with
  its first step. A reservation therefore costs ``O(path)``, not
  ``O(horizon)``.
* the per-cell **reserved-free-from bound** — an upper bound on the
  last step any trajectory halo touches the cell, raised by a
  reservation and left conservatively stale by a removal. The router's
  arrival check scans only ``(step, min(bound, horizon)]`` instead of
  the whole horizon.

The grid interns net and op ids to small ints for the store. The
router's A* and the synthesizer's parking search run in C over it
(:meth:`TimeGrid.search`, :meth:`TimeGrid.nearest_parking`).

The tables that depend only on the array's shape — the ``Point`` of
each index, each cell's 3x3 halo and the packed cells of a rectangle —
live in a :class:`GridShape`. A grid built alone makes its own; the
routing synthesizer builds one per ``synthesize`` call and every
epoch's grid borrows it.

Answers are defined on the array: off-array cells report statically
blocked (a droplet can never leave the chip). On the array the
semantics are bit-identical to the Point-dict grid the test suite keeps
as an oracle (``tests/oracles/``) for every step a reservation's
horizon covers; the tail keeps a parked droplet blocking *beyond* the
horizon too, which no search ever asks about.
"""

from __future__ import annotations

import ctypes
import weakref
from array import array
from collections.abc import Iterable

from repro import kernels
from repro.geometry import Point, Rect
from repro.routing.plan import Net, RoutedNet

#: Static-obstacle byte-mask bits, preclassified per cell.
FAULTY = 1
PARKED_HALO = 2
MODULE = 4
#: Owner slot of a cell more than two modules cover: no net's exempt
#: ops (its producer and consumer) can include every owner.
_MANY_OWNERS = -3


class GridShape:
    """Read-only packed tables of a ``width x height`` array.

    Every grid over the same shape asks the same questions of them, so
    the grids of one routing synthesis share one instance. Rectangle
    cells are memoized per rectangle on first use.
    """

    def __init__(self, width: int, height: int) -> None:
        if width < 1 or height < 1:
            raise ValueError(f"array dimensions must be >= 1, got {width}x{height}")
        self.width = width
        self.height = height
        self.area = width * height
        w, h = width, height
        #: packed idx -> Point, for O(1) unpacking.
        self.points = [Point(x, y) for y in range(1, h + 1) for x in range(1, w + 1)]
        self._rect_cells: dict[Rect, frozenset[int]] = {}
        self._rect_masks: dict[Rect, bytes] = {}

    def halo(self, p: Point) -> tuple[int, ...]:
        """Packed indices of the in-bounds 3x3 halo around *p*, which
        may itself lie off the array, row by row."""
        px, py = p
        w, h = self.width, self.height
        return tuple(
            (yy - 1) * w + (xx - 1)
            for yy in (py - 1, py, py + 1)
            if 1 <= yy <= h
            for xx in (px - 1, px, px + 1)
            if 1 <= xx <= w
        )

    def rect_mask(self, rect: Rect) -> bytes:
        """Packed in-bounds cells of *rect* as a per-cell byte mask."""
        mask = self._rect_masks.get(rect)
        if mask is None:
            cells = bytearray(self.area)
            for i in self.rect_idxs(rect):
                cells[i] = 1
            mask = self._rect_masks[rect] = bytes(cells)
        return mask

    def rect_idxs(self, rect: Rect) -> frozenset[int]:
        """Packed in-bounds cells of *rect*."""
        cells = self._rect_cells.get(rect)
        if cells is None:
            w, h = self.width, self.height
            cells = self._rect_cells[rect] = frozenset(
                (yy - 1) * w + (xx - 1)
                for yy in range(max(rect.y, 1), min(rect.y + rect.height - 1, h) + 1)
                for xx in range(max(rect.x, 1), min(rect.x + rect.width - 1, w) + 1)
            )
        return cells


class TimeGrid:
    """Packed per-timestep obstacle sets over a ``width x height`` array.

    *shape*, when given, supplies the shape tables (its dimensions must
    be the grid's); otherwise the grid builds its own. The reservations
    live in a compiled store freed with the grid; a grid cannot be built
    without the kernels (:class:`~repro.util.errors.KernelBuildError`).
    """

    def __init__(self, width: int, height: int, shape: GridShape | None = None) -> None:
        if shape is None:
            shape = GridShape(width, height)
        elif (shape.width, shape.height) != (width, height):
            raise ValueError(
                f"shape is {shape.width}x{shape.height}, grid is {width}x{height}"
            )
        self.shape = shape
        self.width = width
        self.height = height
        self.area = area = shape.area
        self._kernel = kernels.load()
        #: Preclassified static-obstacle byte mask, one cell per index.
        self._static = bytearray(area)
        #: As-added obstacle sets, kept for the public properties.
        self._faulty: set[Point] = set()
        self._parked: set[Point] = set()
        #: packed idx -> owner op ids whose active footprints cover it.
        self._module_cells: dict[int, set[str]] = {}
        #: op id -> exemption rects (merge/split zones accumulate: a
        #: relocated plug adds its spot without losing the footprint).
        self._regions: dict[str, list[Rect]] = {}
        #: Interned net and op ids; None is -1.
        self._ids: dict[str | None, int] = {None: -1}
        #: Two interned owner ids per module cell (one owner fills both;
        #: more than two read _MANY_OWNERS).
        self._owners = array("i", [_MANY_OWNERS]) * (2 * area)
        #: op id -> its zone cells as a byte mask.
        self._masks: dict[str, bytes] = {}
        #: (net id, producer, consumer) -> the store's per-net arguments.
        self._net_args: dict[tuple, tuple] = {}
        #: The search's trajectory buffer, sized exactly (``horizon + 1``
        #: cells): a sanitized build guards only an allocation's end, and
        #: ``array("i", bytes(n))`` over-allocates.
        self._path = array("i", [0])
        # The view pins the mask's buffer, so the store's pointer into
        # it stays valid.
        self._static_view = (ctypes.c_char * area).from_buffer(self._static)
        self._store = self._kernel.route_new(
            width, height,
            ctypes.addressof(self._static_view), self._owners.buffer_info()[0],
        )
        if not self._store:
            raise MemoryError("cannot allocate the compiled reservation store")
        weakref.finalize(self, self._kernel.route_free, self._store)

    def _intern(self, name: str | None) -> int:
        ids = self._ids
        i = ids.get(name)
        if i is None:
            i = ids[name] = len(ids) - 1
        return i

    def _args(self, net: Net) -> tuple:
        """The store's ``(net, producer, consumer, producer zone mask,
        consumer zone mask)`` arguments for *net*."""
        key = (net.net_id, net.producer, net.consumer)
        args = self._net_args.get(key)
        if args is None:
            args = self._net_args[key] = (
                self._intern(net.net_id), self._intern(net.producer),
                self._intern(net.consumer), self._mask(net.producer),
                self._mask(net.consumer),
            )
        return args

    def _mask(self, op_id: str | None) -> bytes | None:
        """*op_id*'s zone cells as a byte mask; None for no op."""
        if op_id is None:
            return None
        mask = self._masks.get(op_id)
        if mask is None:
            rects = self._regions.get(op_id, ())
            if len(rects) == 1:
                mask = self.shape.rect_mask(rects[0])
            else:
                cells = bytearray(self.area)
                for rect in rects:
                    for i in self.shape.rect_idxs(rect):
                        cells[i] = 1
                mask = bytes(cells)
            self._masks[op_id] = mask
        return mask

    # -- packing -------------------------------------------------------------

    def pack(self, p: Point) -> int:
        """Flat index of an in-bounds cell: ``(y-1)*width + (x-1)``."""
        return (p[1] - 1) * self.width + (p[0] - 1)

    # -- static obstacles ----------------------------------------------------

    def in_bounds(self, p: Point) -> bool:
        return 1 <= p[0] <= self.width and 1 <= p[1] <= self.height

    def add_faulty(self, cells: Iterable[Point | tuple[int, int]]) -> None:
        """Mark cells permanently unusable (defective electrodes)."""
        for c in cells:
            p = Point(*c)
            self._faulty.add(p)
            if self.in_bounds(p):
                self._static[self.pack(p)] |= FAULTY

    def add_parked(self, cells: Iterable[Point | tuple[int, int]]) -> None:
        """Mark parked droplets: the cell plus its one-cell fluidic halo."""
        for c in cells:
            p = Point(*c)
            self._parked.add(p)
            for idx in self.shape.halo(p):
                self._static[idx] |= PARKED_HALO

    def add_module(self, footprint: Rect, owner: str) -> None:
        """Block *footprint* for every net not owned by *owner*; also
        registers the footprint as the owner's merge/split zone."""
        interned = self._intern(owner)
        for idx in self.shape.rect_idxs(footprint):
            owners = self._module_cells.setdefault(idx, set())
            owners.add(owner)
            self._static[idx] |= MODULE
            if len(owners) == 1:
                ids = [interned]
            elif len(owners) == 2:
                ids = [self._intern(o) for o in owners]
            else:
                ids = [_MANY_OWNERS]
            self._owners[2 * idx] = ids[0]
            self._owners[2 * idx + 1] = ids[-1]
        self.add_region(owner, footprint)

    def add_region(self, op_id: str, footprint: Rect) -> None:
        """Register a merge/split exemption zone without blocking it
        (used for producer modules that already finished). Zones
        accumulate per op — registering twice widens, never replaces."""
        rects = self._regions.setdefault(op_id, [])
        if footprint not in rects:
            rects.append(footprint)
            self._masks.pop(op_id, None)
            self._net_args.clear()

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
        Off-array cells are always blocked.
        """
        x, y = cell
        if not (1 <= x <= self.width and 1 <= y <= self.height):
            return True
        m = self._static[(y - 1) * self.width + (x - 1)]
        if not m:
            return False
        if m & FAULTY:
            return True
        if m & PARKED_HALO and not ignore_parked_halo:
            return True
        if m & MODULE:
            return not self._module_cells[(y - 1) * self.width + (x - 1)] <= exempt_ops
        return False

    # -- droplet reservations ------------------------------------------------

    def reserve(self, routed: RoutedNet, horizon: int) -> None:
        """Reserve a trajectory (and its post-arrival parking tail) with
        the spatio-temporal fluidic halo.

        The in-flight prefix (steps before arrival) is materialized per
        step; the parked tail is stored once with its first step, so
        the cost is proportional to the path, not the horizon.
        """
        net = routed.net
        xy = array("i", [c for p in routed.cells for c in p])
        status = self._kernel.route_reserve(
            self._store, xy.buffer_info()[0], len(routed.cells), horizon,
            *self._args(net),
        )
        if status == -1:
            raise ValueError(f"net {net.net_id!r} is already reserved")
        if status:
            raise MemoryError("cannot grow the compiled reservation store")

    def remove_reservation(self, net_id: str) -> None:
        """Drop one net's reservation (re-routing during negotiation or
        compaction), releasing every key it held."""
        net = self._ids.get(net_id)
        if net is not None:
            self._kernel.route_remove(self._store, net)

    def clear_reservations(self) -> None:
        """Drop all reservations (a fresh negotiation round); static
        obstacles stay."""
        self._kernel.route_clear(self._store)

    # -- the searches --------------------------------------------------------

    def search(self, net: Net, horizon: int) -> tuple[Point, ...] | None:
        """The time-expanded A* for *net* against the current
        reservations (see ``PrioritizedRouter._search``): its
        trajectory, or None when none arrives and stays parked within
        *horizon* steps."""
        path = self._path
        if len(path) <= horizon:
            path = self._path = array("i", [0]) * (horizon + 1)
        (sx, sy), (gx, gy), width = net.source, net.goal, self.width
        found = self._kernel.route_search(
            self._store, (sy - 1) * width + sx - 1, (gy - 1) * width + gx - 1, horizon,
            *self._args(net), path.buffer_info()[0],
        )
        if found < 0:
            raise MemoryError("cannot grow the compiled search's tables")
        if not found:
            return None
        return tuple(map(self.shape.points.__getitem__, path[:found]))

    def nearest_parking(
        self, start: Point, parked: Iterable[Point], keep_clear: Iterable[Point]
    ) -> Point | None:
        """The parking search (see ``RoutingSynthesizer._nearest_parking``);
        every *parked* cell must lie on the array."""
        w, h = self.width, self.height
        if not all(1 <= x <= w and 1 <= y <= h for x, y in parked):
            raise ValueError(f"a parked droplet lies off the {w}x{h} array: {sorted(parked)}")
        parked_idxs = array("i", [(y - 1) * w + (x - 1) for x, y in parked])
        clear = array(
            "i", [(y - 1) * w + (x - 1) for x, y in keep_clear if 1 <= x <= w and 1 <= y <= h]
        )
        cell = self._kernel.route_parking(
            self._store, start[0], start[1],
            parked_idxs.buffer_info()[0], len(parked_idxs),
            clear.buffer_info()[0], len(clear),
        )
        if cell < -1:
            raise MemoryError("cannot allocate the parking search's tables")
        return None if cell < 0 else self.shape.points[cell]

    def __str__(self) -> str:
        return (
            f"TimeGrid({self.width}x{self.height}, "
            f"{len(self._faulty)} faulty, {len(self._parked)} parked, "
            f"{self._kernel.route_reserved(self._store)} reservations)"
        )
