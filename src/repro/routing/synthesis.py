"""Routing synthesis: placed + scheduled assay -> verified RoutingPlan.

The flow's last gap. Architectural synthesis fixes *when* operations
run, geometry-level synthesis fixes *where* — this stage fixes *how
droplets get there*. Every droplet-dependency edge between two placed
operations becomes a :class:`~repro.routing.plan.Net` from the
producer's parking cell (its functional-region center, where the
simulator parks finished products) to the consumer's input cell.

Nets are grouped into *epochs* by consumer start time: all transports
released at one schedule instant are routed concurrently on a
time-expanded grid whose obstacles are the module footprints active at
that instant, known faulty cells, and products parked for later
consumers. Net priority is schedule criticality — the remaining
longest-path time below the consumer — so nets feeding the critical
path route first and everyone else stalls or detours around them.

What the epochs share is built once per :meth:`RoutingSynthesizer.
synthesize` call, in a :class:`_SynthesisIndex`: each net's goal and
plug cell, each product's last use, the parkable products, the module
lifetimes and the chip's packed tables. The epochs only read it,
and it dies with the call.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable
from typing import TYPE_CHECKING

from repro.geometry import Point, Rect
from repro.placement.chip import Chip
from repro.placement.model import Placement
from repro.routing.compact import compact_routes
from repro.routing.plan import Net, RoutingEpoch, RoutingPlan
from repro.routing.prioritized import PrioritizedRouter
from repro.routing.timegrid import FAULTY, MODULE, GridShape, TimeGrid

if TYPE_CHECKING:  # synthesis.flow imports this module; avoid the cycle
    from repro.assay.graph import SequencingGraph
    from repro.synthesis.schedule import Schedule


#: Bits of the static mask that wall a cell off for good (parked
#: halos are the parking search's own business).
_HARD = FAULTY | MODULE
#: static mask byte -> 1 if the cell is free of hard obstacles, for
#: ``bytes.translate``.
_FREE_OF_HARD = bytes(0 if m & _HARD else 1 for m in range(256))


class _SynthesisIndex:
    """The schedule context every epoch of one synthesis reads.

    Built at the start of :meth:`RoutingSynthesizer.synthesize` from
    the chip-cell placement and dropped at its end; epochs never write it.
    """

    def __init__(
        self,
        graph: SequencingGraph,
        schedule: Schedule,
        placement: Placement,
        criticality: dict[str, float],
        after_time: float | None,
    ) -> None:
        self.shape = GridShape(placement.core_width, placement.core_height)
        #: op -> latest start among its scheduled consumers (ops with
        #: none are absent): part of its product outlives instant t
        #: iff ``last_use[op] > t``.
        self.last_use: dict[str, float] = {}
        consumers: dict[str, int] = {}
        for op_id in graph.topological_order():
            starts = [schedule.start(c) for c in graph.successors(op_id) if c in schedule]
            consumers[op_id] = len(starts)
            if starts:
                self.last_use[op_id] = max(starts)
        #: (start, stop, footprint, op) per placed module, placement order.
        self.modules = [(pm.start, pm.stop, pm.footprint, pm.op_id) for pm in placement]
        #: (op, stop, last use, functional center) of every placed,
        #: scheduled product with a scheduled consumer, sorted by op.
        self.parkable = [
            (
                op_id,
                schedule.stop(op_id),
                self.last_use[op_id],
                placement.get(op_id).functional_region.center,
            )
            for op_id in sorted(placement.op_ids())
            if op_id in schedule and op_id in self.last_use
        ]
        #: release instant -> its transports, sorted by (producer,
        #: consumer): (producer, consumer, goal, plug cell, producer
        #: footprint, ops exempt at the plug, priority). Only instants
        #: at or after *after_time*, when set: a suffix re-route routes
        #: no earlier epoch.
        self.releases: dict[float, list[tuple]] = {}
        for u, v in graph.edges():  # sorted
            if not (u in placement and v in placement and v in schedule):
                continue
            if after_time is not None and schedule.start(v) < after_time:
                continue
            # Input i of a consumer goes to the i-th cell of its
            # functional region, i being the droplet's index among the
            # consumer's (sorted) predecessors — as the simulator does.
            targets = list(placement.get(v).functional_region.cells())
            i = graph.predecessors(v).index(u)
            producer = placement.get(u)
            # The simulator parks a product *inside* its consumer's
            # claimed cells only when that consumer is the sole one —
            # with fan-out the other shares would be trapped, so the
            # product was evacuated to a neutral cell. Mirror that:
            # exempt the consumer from the plug check only for
            # one-consumer products.
            exempt = frozenset({u} | ({v} if consumers[u] <= 1 else set()))
            self.releases.setdefault(schedule.start(v), []).append((
                u,
                v,
                targets[min(i, len(targets) - 1)],
                producer.functional_region.center,
                producer.footprint,
                exempt,
                criticality.get(v, 0.0),
            ))


class RoutingSynthesizer:
    """Builds a :class:`RoutingPlan` for one synthesized configuration."""

    #: Occupancy grid built per epoch, ``grid_factory(width, height,
    #: shape)``, *shape* being the call's shared :class:`GridShape`.
    grid_factory = TimeGrid

    def __init__(self, router: PrioritizedRouter | None = None) -> None:
        #: Non-strict by default: an unroutable net is reported through
        #: the plan's routability instead of aborting the whole flow.
        self.router = router if router is not None else PrioritizedRouter(strict=False)

    def synthesize(
        self,
        graph: SequencingGraph,
        schedule: Schedule,
        placement: Placement,
        chip: Chip,
        faulty_cells: Iterable[Point | tuple[int, int]] = (),
        after_time: float | None = None,
        step_offset: int = 0,
    ) -> RoutingPlan:
        """Route every placed-to-placed dependency edge of *graph* on
        *chip*, the array *placement* sits on.

        *after_time* restricts synthesis to the **suffix**: only epochs
        released at or after that instant are routed (the online-
        recovery engine re-routes the transports not executed strictly
        before the fault — an epoch releasing exactly at the fault
        instant already faces the dead cell — against an updated fault
        mask and merges the result with the already-executed prefix
        epochs). *step_offset* seeds the first routed epoch's global
        step counter so suffix epochs continue the prefix's numbering.
        """
        # Work in chip cells, the replay's frame, throughout.
        index = _SynthesisIndex(
            graph, schedule, chip.embed(placement), self._criticality(graph, schedule),
            after_time,
        )
        faulty = frozenset(map(chip.cell, faulty_cells))

        epochs: list[RoutingEpoch] = []
        for t in sorted(index.releases):
            epoch = self._route_epoch(
                index, index.releases[t], t, step_offset, faulty
            )
            epochs.append(epoch)
            step_offset += epoch.makespan_steps
        return RoutingPlan(
            width=chip.width, height=chip.height, epochs=tuple(epochs),
            margin=chip.margin,
        )

    # -- epoch construction --------------------------------------------------

    def _route_epoch(
        self,
        index: _SynthesisIndex,
        batch: list[tuple],
        t: float,
        step_offset: int,
        faulty: frozenset[Point],
    ) -> RoutingEpoch:
        shape = index.shape
        grid = self.grid_factory(shape.width, shape.height, shape)
        grid.add_faulty(faulty)

        # Modules operating at the release instant are hard obstacles,
        # passable only to their own input/output nets. Consumers of
        # this batch start exactly at t, so they are active here.
        active = [
            (footprint, op_id)
            for start, stop, footprint, op_id in index.modules
            if start <= t < stop
        ]
        for footprint, op_id in active:
            grid.add_module(footprint, op_id)

        nets = self._extract_nets(batch, grid)

        # Fan-out with staggered consumers: when a share departs this
        # epoch but another consumer starts later, the *remainder* of
        # the plug stays behind at the shared source. Model it as a
        # zero-move "hold" net so in-flight traffic keeps its distance
        # and the verifier sees the droplet (split-zone exemptions let
        # the departing siblings pull away from it).
        departing: dict[str, Point] = {}
        for n in nets:
            if n.producer is not None:
                departing.setdefault(n.producer, n.source)
        holds: list[Net] = []
        last_use = index.last_use
        for op_id, src in sorted(departing.items()):
            if last_use.get(op_id, t) <= t:
                continue
            # If a starting module claimed the plug's cell, the
            # remainder evacuates to the nearest neutral cell first
            # (same abstraction as the relocated net sources above).
            spot = src
            exempt = frozenset({op_id})
            if grid.static_blocked(spot, exempt):
                spot = self._nearest_free(grid, spot, exempt) or spot
                lo_x, lo_y = min(src.x, spot.x), min(src.y, spot.y)
                grid.add_region(
                    op_id,
                    Rect(
                        lo_x - 1,
                        lo_y - 1,
                        abs(src.x - spot.x) + 3,
                        abs(src.y - spot.y) + 3,
                    ),
                )
            holds.append(Net(f"{op_id}@hold", spot, spot, producer=op_id, priority=1e9))
        nets = holds + nets

        # Products already finished but awaiting a later consumer sit
        # parked on the array; they and their halos are static obstacles
        # for everyone except the nets that move (or hold) them.
        parked = self._parked_products(index, t, nets, grid, departing)
        grid.add_parked(parked)

        horizon = self.router.default_horizon(grid, nets)
        routed, failed = self.router.route_all(nets, grid, horizon)
        if routed and len(nets) > 1:
            # A lone net was routed on exactly the grid compaction would
            # re-route it on, so its re-route could only find it again.
            routed = compact_routes(routed, grid, self.router, horizon)

        return RoutingEpoch(
            time_s=t,
            step_offset=step_offset,
            nets=tuple(routed),
            failed=tuple(failed),
            modules=tuple(active),
            regions=grid.regions(),
            faulty=faulty,
            parked=frozenset(parked),
        )

    def _extract_nets(self, batch: list[tuple], grid: TimeGrid) -> list[Net]:
        """One net per batch transport, from its producer's plug to its
        goal cell (see :class:`_SynthesisIndex`)."""
        nets: list[Net] = []
        taken_sources: set[Point] = set()
        source_of_producer: dict[str, Point] = {}
        for u, v, goal, source, footprint, source_exempt, priority in batch:
            # Register the split zone even when the producer module is
            # no longer active, so sibling shares may separate inside it.
            grid.add_region(u, footprint)
            if u in source_of_producer:
                # Sibling shares leave from the same plug.
                source = source_of_producer[u]
            elif grid.static_blocked(source, source_exempt) or source in taken_sources:
                # Dynamic reconfigurability let another module claim the
                # parking cell (or two time-disjoint modules share a
                # functional center, so two products cannot both sit on
                # it); the controller evacuates the product to the
                # nearest free cell before the transport (the
                # simulator's park-product pass does the same).
                relocated = self._nearest_free(grid, source, source_exempt, taken_sources)
                if relocated is not None:
                    source = relocated
                    # The plug now sits outside the producer footprint;
                    # move the split zone with it so sibling shares (and
                    # a hold-net remainder) can still separate there.
                    grid.add_region(u, Rect(source.x - 1, source.y - 1, 3, 3))
            source_of_producer[u] = source
            taken_sources.add(source)
            nets.append(
                Net(
                    net_id=f"{u}->{v}",
                    source=source,
                    goal=goal,
                    producer=u,
                    consumer=v,
                    priority=priority,
                )
            )
        return nets

    def _parked_products(
        self,
        index: _SynthesisIndex,
        t: float,
        nets: list[Net],
        grid: TimeGrid,
        departing: dict[str, Point],
    ) -> set[Point]:
        """Where products awaiting a later consumer sit during this epoch.

        A product parks at its producer's functional center — unless
        dynamic reconfigurability let a currently active module claim
        that cell, in which case the controller evacuated it to the
        nearest neutral cell (the simulator's park-product pass does
        the same). Products with a share departing this epoch are
        excluded: their remainder is modeled as a hold net instead.
        Relocated spots avoid this epoch's sources and goals so
        parking never manufactures unroutable nets.
        """
        moving = {n.source for n in nets} | {n.goal for n in nets}
        keep_clear = set(moving)
        for p in moving:
            for dx in (-1, 0, 1):
                for dy in (-1, 0, 1):
                    keep_clear.add(Point(p.x + dx, p.y + dy))

        parked: set[Point] = set()
        for op_id, stop, last_use, cell in index.parkable:
            if stop > t or last_use <= t or op_id in departing:
                # Still running, used up, or its plug location is a net
                # (or hold) source.
                continue
            if grid.static_blocked(cell) or cell in keep_clear:
                relocated = self._nearest_parking(grid, cell, parked, keep_clear)
                cell = relocated if relocated is not None else cell
            parked.add(cell)
        return parked

    @staticmethod
    def _nearest_parking(
        grid: TimeGrid,
        start: Point,
        parked: set[Point],
        keep_clear: set[Point],
    ) -> Point | None:
        """A neutral parking cell: off active modules and faulty cells,
        clear of this epoch's sources/goals, one cell away from other
        parked droplets.

        Among the legal cells, prefer spacing from already-parked
        droplets over closeness to the original spot: clustered parking
        fuses adjacent fluidic halos into walls that disconnect the
        array, which costs far more routability than a slightly longer
        evacuation haul. Never wall off the array: take the best-scored
        candidate whose halo leaves the remaining free space in one
        connected piece (checked lazily in preference order, so a
        couple of flood fills instead of one per legal cell); when none
        does, the best-scored candidate.

        The search runs on packed indices: one multi-source Chebyshev
        BFS for the spacing key, and flood fills over a byte mask of
        the free cells built once per search. A grid on the compiled
        store runs it in C (``_route.c``), picking the same cell.
        """
        if grid._kernel is not None:
            return grid._compiled_parking(start, parked, keep_clear)
        shape = grid.shape
        w, h, area = shape.width, shape.height, shape.area
        halos = shape.halos
        static = grid._static
        parked_idxs = [(q[1] - 1) * w + (q[0] - 1) for q in parked]
        # Exact min Chebyshev distance to any parked droplet, saturated
        # at 5: the preference key caps at 4 (halos no longer interact
        # beyond it, so the shorter evacuation wins) and legality needs
        # > 1.
        spacing = [5] * area
        if parked_idxs:
            frontier = parked_idxs
            for i in frontier:
                spacing[i] = 0
            d = 1
            while frontier and d < 5:
                nxt: list[int] = []
                for i in frontier:
                    for j in halos[i]:
                        if spacing[j] > d:
                            spacing[j] = d
                            nxt.append(j)
                frontier = nxt
                d += 1
        sx, sy = start
        start_idx = (sy - 1) * w + (sx - 1) if 1 <= sx <= w and 1 <= sy <= h else -1
        clear = {
            (y - 1) * w + (x - 1) for x, y in keep_clear if 1 <= x <= w and 1 <= y <= h
        }
        # Key: spacing (capped at 4) first, then closeness to the start,
        # as one int; column-major scan order breaks ties (the sort is
        # stable).
        span = w + h
        legal: list[int] = []
        keys: dict[int, int] = {}
        for col in range(w):
            dx = abs(col + 1 - sx)
            for i in range(col, area, w):
                if static[i] or i == start_idx or i in clear:
                    continue
                s = spacing[i]
                if s > 1:
                    legal.append(i)
                    keys[i] = (s if s < 4 else 4) * span - dx - abs(i // w + 1 - sy)
        if not legal:
            return None
        legal.sort(key=keys.__getitem__, reverse=True)
        free = bytearray(static.translate(_FREE_OF_HARD))
        for q in parked_idxs:
            for i in halos[q]:
                free[i] = 0
        free_count = free.count(1)
        for cell in legal:
            if RoutingSynthesizer._keeps_connected(shape, free, free_count, cell):
                return shape.points[cell]
        return shape.points[legal[0]]

    @staticmethod
    def _keeps_connected(
        shape: GridShape, free: bytearray, free_count: int, candidate: int
    ) -> bool:
        """True if parking at packed cell *candidate* leaves the *free*
        cells (*free_count* of them: off modules, faults and the other
        parked halos) minus its halo 4-connected: one flood fill over a
        copy of the mask."""
        mask = bytearray(free)
        total = free_count
        for i in shape.halos[candidate]:
            if mask[i]:
                mask[i] = 0
                total -= 1
        if not total:
            return False
        seed = mask.find(1)
        mask[seed] = 0  # reuse the mask as the visited filter
        seen_count = 1
        stack = [seed]
        neighbors = shape.neighbors
        while stack:
            for j in neighbors[stack.pop()]:
                if mask[j]:
                    mask[j] = 0
                    seen_count += 1
                    stack.append(j)
        return seen_count == total

    @staticmethod
    def _nearest_free(
        grid: TimeGrid,
        start: Point,
        exempt: frozenset[str],
        avoid: set[Point] = frozenset(),
    ) -> Point | None:
        seen = {start}
        queue = deque([start])
        while queue:
            cell = queue.popleft()
            if (
                cell != start
                and cell not in avoid
                and not grid.static_blocked(cell, exempt)
            ):
                return cell
            for nxt in cell.neighbors4():
                if grid.in_bounds(nxt) and nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
        return None

    @staticmethod
    def _criticality(graph: SequencingGraph, schedule: Schedule) -> dict[str, float]:
        """Remaining longest-path time at and below each operation —
        the standard list-scheduling criticality, reused for net
        ordering so critical-path transports route first."""
        remaining: dict[str, float] = {}
        for op_id in reversed(graph.topological_order()):
            if op_id not in schedule:
                remaining[op_id] = 0.0
                continue
            duration = schedule.stop(op_id) - schedule.start(op_id)
            below = max(
                (remaining[s] for s in graph.successors(op_id)), default=0.0
            )
            remaining[op_id] = duration + below
        return remaining
