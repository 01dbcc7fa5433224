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

**Packed representation.** This implementation is built for the A* hot
path: a cell is the flat integer index ``(y-1)*width + (x-1)``, static
obstacles are preclassified into a per-cell byte mask (FAULTY /
PARKED_HALO / MODULE bits), and in-flight halos live in one flat dict
keyed by ``step*area + idx`` — the same packing the router uses for its
search states, so one multiply-add answers an occupancy probe with no
``Point`` allocation. Two structures make reservations cheap:

* the **parked tail** — after arrival a droplet blocks its goal halo
  for *every* remaining step, so instead of materializing
  ``O(horizon)`` per-step entries the tail is stored once per cell as
  ``(net, from_step)`` and compared against the queried step. A
  reservation therefore costs ``O(path)``, not ``O(horizon)``.
* the per-cell **reserved-free-from bound** — ``_cell_last[idx]`` is an
  upper bound on the last step any trajectory halo touches the cell,
  maintained by ``reserve()`` and left conservatively stale by
  ``remove_reservation()`` (an upper bound stays an upper bound). The
  router's arrival check scans only ``(step, min(bound, horizon)]``
  instead of the whole horizon.

Answers are defined on the array: off-array cells report statically
blocked (a droplet can never leave the chip). On the array the
semantics are bit-identical to the original Point-dict grid the test
suite keeps as an oracle (``tests/oracles/``) for every step a
reservation's horizon covers; the tail keeps a parked droplet blocking
*beyond* the horizon too, which no search ever asks about.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.geometry import Point, Rect
from repro.routing.plan import Net, RoutedNet

#: Static-obstacle byte-mask bits, preclassified per cell.
FAULTY = 1
PARKED_HALO = 2
MODULE = 4


class TimeGrid:
    """Packed per-timestep obstacle sets over a ``width x height`` array."""

    def __init__(self, width: int, height: int) -> None:
        if width < 1 or height < 1:
            raise ValueError(f"array dimensions must be >= 1, got {width}x{height}")
        self.width = width
        self.height = height
        self.area = width * height
        #: Preclassified static-obstacle byte mask, one cell per index.
        self._static = bytearray(self.area)
        #: As-added obstacle sets, kept for the public properties.
        self._faulty: set[Point] = set()
        self._parked: set[Point] = set()
        #: packed idx -> owner op ids whose active footprints cover it.
        self._module_cells: dict[int, set[str]] = {}
        #: op id -> exemption rects (merge/split zones accumulate: a
        #: relocated plug adds its spot without losing the footprint).
        self._regions: dict[str, list[Rect]] = {}
        #: op id -> packed in-bounds region cells, cached for the router.
        self._region_cells: dict[str, frozenset[int]] = {}
        #: step*area + idx -> [(net_id, producer, consumer, prod_in,
        #: cons_in), ...] halo entries of in-flight trajectory
        #: positions; the two flags record whether the droplet position
        #: that produced the entry lies inside the producer's/consumer's
        #: registered zone (the verifier's two-sided exemption rule).
        self._halo: dict[int, list[tuple[str, str | None, str | None, bool, bool]]] = {}
        #: idx -> [(net_id, producer, consumer, from_step, prod_in,
        #: cons_in), ...] parked tails: the goal halo a droplet holds
        #: from arrival onward, flags computed from the goal cell.
        self._tail: dict[
            int, list[tuple[str, str | None, str | None, int, bool, bool]]
        ] = {}
        #: idx -> upper bound on the last step any _halo entry touches
        #: the cell (the reserved-free-from bound, see module docs).
        self._cell_last: dict[int, int] = {}
        #: net_id -> (halo keys, tail idxs) for O(path) removal.
        self._net_keys: dict[str, tuple[list[int], list[int]]] = {}
        #: packed idx -> Point, for O(1) unpacking.
        self._points = [
            Point(x, y)
            for y in range(1, height + 1)
            for x in range(1, width + 1)
        ]
        self._neighbors: list[tuple[int, ...]] | None = None

    # -- packing -------------------------------------------------------------

    def pack(self, p: Point) -> int:
        """Flat index of an in-bounds cell: ``(y-1)*width + (x-1)``."""
        return (p[1] - 1) * self.width + (p[0] - 1)

    def unpack(self, idx: int) -> Point:
        """Cell at flat index *idx*."""
        return self._points[idx]

    @property
    def neighbors(self) -> list[tuple[int, ...]]:
        """Per-cell expansion table for the time-expanded search: the
        cell itself (wait-in-place) followed by its in-bounds 4-
        neighbors, in the router's canonical ``(wait, +x, -x, +y, -y)``
        order."""
        if self._neighbors is None:
            w, h = self.width, self.height
            table: list[tuple[int, ...]] = []
            for y in range(1, h + 1):
                for x in range(1, w + 1):
                    idx = (y - 1) * w + (x - 1)
                    row = [idx]
                    if x < w:
                        row.append(idx + 1)
                    if x > 1:
                        row.append(idx - 1)
                    if y < h:
                        row.append(idx + w)
                    if y > 1:
                        row.append(idx - w)
                    table.append(tuple(row))
            self._neighbors = table
        return self._neighbors

    def _halo_idxs(self, p: Point) -> list[int]:
        """Packed indices of the in-bounds 3x3 halo around *p*."""
        w, h = self.width, self.height
        px, py = p
        out = []
        for yy in (py - 1, py, py + 1):
            if 1 <= yy <= h:
                base = (yy - 1) * w - 1
                for xx in (px - 1, px, px + 1):
                    if 1 <= xx <= w:
                        out.append(base + xx)
        return out

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
            for idx in self._halo_idxs(p):
                self._static[idx] |= PARKED_HALO

    def add_module(self, footprint: Rect, owner: str) -> None:
        """Block *footprint* for every net not owned by *owner*; also
        registers the footprint as the owner's merge/split zone."""
        for cell in footprint.cells():
            if self.in_bounds(cell):
                idx = self.pack(cell)
                self._module_cells.setdefault(idx, set()).add(owner)
                self._static[idx] |= MODULE
        self.add_region(owner, footprint)

    def add_region(self, op_id: str, footprint: Rect) -> None:
        """Register a merge/split exemption zone without blocking it
        (used for producer modules that already finished). Zones
        accumulate per op — registering twice widens, never replaces."""
        rects = self._regions.setdefault(op_id, [])
        if footprint not in rects:
            rects.append(footprint)
            self._region_cells.pop(op_id, None)

    def in_region(self, op_id: str | None, cell: Point) -> bool:
        if op_id is None:
            return False
        return any(r.contains_point(cell) for r in self._regions.get(op_id, ()))

    def region_idxs(self, op_id: str | None) -> frozenset[int]:
        """Packed in-bounds cells of all of op's registered zones —
        precomputed once so the router's exemption checks are set
        membership instead of per-query rect scans."""
        if op_id is None:
            return frozenset()
        cached = self._region_cells.get(op_id)
        if cached is None:
            cached = frozenset(
                self.pack(cell)
                for rect in self._regions.get(op_id, ())
                for cell in rect.cells()
                if self.in_bounds(cell)
            )
            self._region_cells[op_id] = cached
        return cached

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
        step; the parked tail is stored once with its ``from_step``, so
        the cost is proportional to the path, not the horizon.
        """
        net = routed.net
        if net.net_id in self._net_keys:
            raise ValueError(f"net {net.net_id!r} is already reserved")
        start = routed.start_step
        arrival = routed.arrival_step
        cells = routed.cells
        prod_cells = self.region_idxs(net.producer)
        cons_cells = self.region_idxs(net.consumer)
        # Collect each step's halo cells first, keyed by the origin's
        # in-zone flag pair: the t-1/t/t+1 windows of consecutive steps
        # overlap, and a waiting droplet would otherwise insert the same
        # (step, cell) entry repeatedly. Distinct flag pairs stay
        # distinct entries — the two-sided exemption is per origin
        # position, so one in-zone and one out-of-zone origin covering
        # the same (step, cell) must both be consulted.
        cells_by_step: dict[int, dict[int, int]] = {}
        for t in range(start, min(arrival - 1, horizon) + 1):
            p = cells[t - start]
            pidx = (p[1] - 1) * self.width + (p[0] - 1)
            flags = 1 << ((1 if pidx in prod_cells else 0) | (2 if pidx in cons_cells else 0))
            halo = self._halo_idxs(p)
            for s in (t - 1, t, t + 1):
                if s >= 0:
                    per_step = cells_by_step.setdefault(s, {})
                    for i in halo:
                        per_step[i] = per_step.get(i, 0) | flags
        halo_map = self._halo
        cell_last = self._cell_last
        halo_keys: list[int] = []
        tail_idxs: list[int] = []
        area = self.area
        net_id, producer, consumer = net.net_id, net.producer, net.consumer
        for s, per_step in cells_by_step.items():
            base = s * area
            for i, flag_set in per_step.items():
                key = base + i
                lst = halo_map.get(key)
                if lst is None:
                    lst = halo_map[key] = []
                for fl in range(4):
                    if flag_set & (1 << fl):
                        lst.append(
                            (net_id, producer, consumer, bool(fl & 1), bool(fl & 2))
                        )
                halo_keys.append(key)
                if cell_last.get(i, -1) < s:
                    cell_last[i] = s
        if horizon >= arrival:
            gidx = (cells[-1][1] - 1) * self.width + (cells[-1][0] - 1)
            tail_entry = (
                net_id,
                producer,
                consumer,
                max(arrival - 1, 0),
                gidx in prod_cells,
                gidx in cons_cells,
            )
            for i in self._halo_idxs(cells[-1]):
                self._tail.setdefault(i, []).append(tail_entry)
                tail_idxs.append(i)
        self._net_keys[net.net_id] = (halo_keys, tail_idxs)

    def remove_reservation(self, net_id: str) -> None:
        """Drop one net's reservation (re-routing during negotiation or
        compaction), pruning emptied entry lists so negotiation-heavy
        epochs do not accumulate dead keys."""
        halo_keys, tail_idxs = self._net_keys.pop(net_id, ((), ()))
        halo_map = self._halo
        for key in halo_keys:
            entries = halo_map.get(key)
            if not entries:
                continue
            entries[:] = [e for e in entries if e[0] != net_id]
            if not entries:
                del halo_map[key]
        tail_map = self._tail
        for i in tail_idxs:
            entries = tail_map.get(i)
            if not entries:
                continue
            entries[:] = [e for e in entries if e[0] != net_id]
            if not entries:
                del tail_map[i]

    def clear_reservations(self) -> None:
        """Drop all reservations (a fresh negotiation round); static
        obstacles stay."""
        self._halo.clear()
        self._tail.clear()
        self._cell_last.clear()
        self._net_keys.clear()

    def reservation_footprint(self) -> int:
        """Number of live reservation keys currently held — the
        memory-leak regression tests assert this returns to zero after
        every reservation is removed."""
        return len(self._halo) + len(self._tail)

    def reserved_blocked(self, cell: Point, step: int, net: Net) -> bool:
        """True if another droplet's halo covers (*cell*, *step*) for
        this net, honoring the two-sided merge/split exemptions (both
        the queried cell and the entry's recorded origin in-zone)."""
        x, y = cell
        if not (1 <= x <= self.width and 1 <= y <= self.height):
            return False
        idx = (y - 1) * self.width + (x - 1)
        net_id, producer, consumer = net.net_id, net.producer, net.consumer
        entries = self._halo.get(step * self.area + idx)
        if entries:
            for eid, ep, ec, pok, cok in entries:
                if eid == net_id:
                    continue
                if cok and ec is not None and ec == consumer and self.in_region(ec, cell):
                    continue
                if pok and ep is not None and ep == producer and self.in_region(ep, cell):
                    continue
                return True
        tails = self._tail.get(idx)
        if tails:
            for eid, ep, ec, from_step, pok, cok in tails:
                if from_step > step or eid == net_id:
                    continue
                if cok and ec is not None and ec == consumer and self.in_region(ec, cell):
                    continue
                if pok and ep is not None and ep == producer and self.in_region(ep, cell):
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
            f"TimeGrid({self.width}x{self.height}, "
            f"{len(self._faulty)} faulty, {len(self._parked)} parked, "
            f"{len(self._net_keys)} reservations)"
        )
