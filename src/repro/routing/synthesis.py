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
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable
from typing import TYPE_CHECKING

from repro.geometry import Point, Rect
from repro.placement.model import Placement
from repro.placement.transport import dependency_edges
from repro.routing.compact import CompactionReport, compact_routes
from repro.routing.plan import Net, RoutingEpoch, RoutingPlan
from repro.routing.prioritized import PrioritizedRouter
from repro.routing.timegrid import FAULTY, MODULE, TimeGrid

if TYPE_CHECKING:  # synthesis.flow imports this module; avoid the cycle
    from repro.assay.graph import SequencingGraph
    from repro.synthesis.schedule import Schedule


class RoutingSynthesizer:
    """Builds a :class:`RoutingPlan` for one synthesized configuration."""

    #: Occupancy grid built per epoch, ``grid_factory(width, height)``.
    grid_factory = TimeGrid

    def __init__(
        self,
        router: PrioritizedRouter | None = None,
        compact: bool = True,
        max_passes: int = 3,
        margin: int = 2,
    ) -> None:
        if margin < 0:
            raise ValueError(f"margin must be >= 0, got {margin}")
        #: Non-strict by default: an unroutable net is reported through
        #: the plan's routability instead of aborting the whole flow.
        self.router = router if router is not None else PrioritizedRouter(strict=False)
        self.compact = compact
        self.max_passes = max_passes
        #: Boundary-lane width around the core area — the chip's free
        #: perimeter cells (the simulator pads its array the same way).
        #: Without them, modules touching the core edge wall droplets
        #: into unroutable pockets.
        self.margin = margin

        #: Per-epoch compaction reports of the last synthesize() call.
        self.compaction_reports: list[CompactionReport] = []

    def synthesize(
        self,
        graph: SequencingGraph,
        schedule: Schedule,
        placement: Placement,
        faulty_cells: Iterable[Point | tuple[int, int]] = (),
        after_time: float | None = None,
        step_offset: int = 0,
    ) -> RoutingPlan:
        """Route every placed-to-placed dependency edge of *graph*.

        *after_time* restricts synthesis to the **suffix**: only epochs
        released at or after that instant are routed (the online-
        recovery engine re-routes the transports not executed strictly
        before the fault — an epoch releasing exactly at the fault
        instant already faces the dead cell — against an updated fault
        mask and merges the result with the already-executed prefix
        epochs). *step_offset* seeds the first routed epoch's global
        step counter so suffix epochs continue the prefix's numbering.
        """
        m = self.margin
        width = placement.core_width + 2 * m
        height = placement.core_height + 2 * m
        # Work in padded coordinates throughout; the plan records the
        # margin so replay layers can map cells back.
        shifted = Placement(width, height, pitch_mm=placement.pitch_mm)
        for pm in placement:
            shifted.add(pm.moved_to(pm.x + m, pm.y + m))
        placement = shifted
        faulty = frozenset(Point(c[0] + m, c[1] + m) for c in faulty_cells)
        criticality = self._criticality(graph, schedule)

        edges = [
            (u, v)
            for u, v in dependency_edges(graph)
            if u in placement and v in placement and v in schedule
        ]
        release_times = sorted({schedule.start(v) for _, v in edges})
        if after_time is not None:
            release_times = [t for t in release_times if t >= after_time]

        self.compaction_reports = []
        epochs: list[RoutingEpoch] = []
        for t in release_times:
            batch = [(u, v) for u, v in edges if schedule.start(v) == t]
            epoch = self._route_epoch(
                graph, schedule, placement, batch, t, step_offset, faulty,
                criticality, width, height,
            )
            epochs.append(epoch)
            step_offset += epoch.makespan_steps
        return RoutingPlan(
            width=width, height=height, epochs=tuple(epochs), margin=m
        )

    # -- epoch construction --------------------------------------------------

    def _route_epoch(
        self,
        graph: SequencingGraph,
        schedule: Schedule,
        placement: Placement,
        batch: list[tuple[str, str]],
        t: float,
        step_offset: int,
        faulty: frozenset[Point],
        criticality: dict[str, float],
        width: int,
        height: int,
    ) -> RoutingEpoch:
        grid = self.grid_factory(width, height)
        grid.add_faulty(faulty)

        # Modules operating at the release instant are hard obstacles,
        # passable only to their own input/output nets. Consumers of
        # this batch start exactly at t, so they are active here.
        active = [pm for pm in placement if pm.start <= t < pm.stop]
        for pm in active:
            grid.add_module(pm.footprint, pm.op_id)

        nets = self._extract_nets(graph, schedule, placement, batch, criticality, grid)

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
        for op_id, src in sorted(departing.items()):
            if not self._has_later_consumer(graph, schedule, op_id, t):
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
        parked = self._parked_products(
            graph, schedule, placement, t, nets, grid, frozenset(departing)
        )
        grid.add_parked(parked)

        horizon = self.router.default_horizon(grid, nets)
        routed, failed = self.router.route_all(nets, grid, horizon)
        if self.compact and routed:
            routed, report = compact_routes(
                routed, grid, self.router, horizon, max_passes=self.max_passes
            )
            self.compaction_reports.append(report)

        return RoutingEpoch(
            time_s=t,
            step_offset=step_offset,
            nets=tuple(routed),
            failed=tuple(failed),
            modules=tuple((pm.footprint, pm.op_id) for pm in active),
            regions=grid.regions(),
            faulty=faulty,
            parked=frozenset(parked),
        )

    def _extract_nets(
        self,
        graph: SequencingGraph,
        schedule: Schedule,
        placement: Placement,
        batch: list[tuple[str, str]],
        criticality: dict[str, float],
        grid: TimeGrid,
    ) -> list[Net]:
        """One net per batch edge, with goals assigned the way the
        simulator assigns them: input *i* of a consumer goes to the
        *i*-th cell of its functional region, *i* being the droplet's
        index among the consumer's (sorted) predecessors."""
        nets: list[Net] = []
        taken_sources: set[Point] = set()
        source_of_producer: dict[str, Point] = {}
        for u, v in sorted(batch):
            consumer = placement.get(v)
            targets = list(consumer.functional_region.cells())
            preds = graph.predecessors(v)  # sorted; mirrors the simulator
            i = preds.index(u)
            goal = targets[min(i, len(targets) - 1)]
            source = placement.get(u).functional_region.center
            # Register the split zone even when the producer module is
            # no longer active, so sibling shares may separate inside it.
            grid.add_region(u, placement.get(u).footprint)
            # The simulator parks a product *inside* its consumer's
            # claimed cells only when that consumer is the sole one —
            # with fan-out the other shares would be trapped, so the
            # product was evacuated to a neutral cell. Mirror that:
            # exempt the consumer from the source check only for
            # one-consumer products.
            scheduled_consumers = [
                s for s in graph.successors(u) if s in schedule
            ]
            source_exempt = frozenset(
                {u} | ({v} if len(scheduled_consumers) <= 1 else set())
            )
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
                    priority=criticality.get(v, 0.0),
                )
            )
        return nets

    @staticmethod
    def _has_later_consumer(
        graph: SequencingGraph, schedule: Schedule, op_id: str, t: float
    ) -> bool:
        """True if part of *op_id*'s product must outlive instant *t*."""
        return any(
            s in schedule and schedule.start(s) > t
            for s in graph.successors(op_id)
        )

    def _parked_products(
        self,
        graph: SequencingGraph,
        schedule: Schedule,
        placement: Placement,
        t: float,
        nets: list[Net],
        grid: TimeGrid,
        departing: frozenset[str],
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
        for op_id in sorted(placement.op_ids()):
            if op_id in departing:
                continue  # its plug location is a net (or hold) source
            if op_id not in schedule or schedule.stop(op_id) > t:
                continue
            if not self._has_later_consumer(graph, schedule, op_id, t):
                continue
            cell = placement.get(op_id).functional_region.center
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
        couple of flood fills instead of one per legal cell).

        The search is one multi-source Chebyshev BFS for the spacing
        key, and connectivity runs over byte masks.
        """
        w, h, area = grid.width, grid.height, grid.area
        static = grid._static
        # Exact min Chebyshev distance to any parked droplet, saturated
        # at 5: the preference key caps at 4 (halos no longer interact
        # beyond it, so the shorter evacuation wins) and legality needs
        # > 1.
        spacing = [5] * area
        if parked:
            frontier = [grid.pack(q) for q in parked]
            for i in frontier:
                spacing[i] = 0
            d = 1
            while frontier and d < 5:
                nxt: list[int] = []
                for i in frontier:
                    x, y = i % w, i // w
                    for dy in (-1, 0, 1):
                        yy = y + dy
                        if not 0 <= yy < h:
                            continue
                        base = yy * w
                        for dx in (-1, 0, 1):
                            xx = x + dx
                            if 0 <= xx < w and spacing[base + xx] > d:
                                spacing[base + xx] = d
                                nxt.append(base + xx)
                frontier = nxt
                d += 1
        legal: list[Point] = []
        sx, sy = start
        keys: dict[Point, tuple[int, int]] = {}
        for x in range(1, w + 1):
            col = x - 1
            for y in range(1, h + 1):
                i = (y - 1) * w + col
                if static[i]:
                    continue
                cell = Point(x, y)
                if cell == start or cell in keep_clear:
                    continue
                s = spacing[i]
                if s > 1:
                    legal.append(cell)
                    keys[cell] = (min(s, 4), -(abs(x - sx) + abs(y - sy)))
        if not legal:
            return None
        legal.sort(key=keys.__getitem__, reverse=True)
        for cell in legal:
            if RoutingSynthesizer._keeps_connected(grid, cell, parked):
                return cell
        return legal[0]

    @staticmethod
    def _keeps_connected(grid: TimeGrid, candidate: Point, parked: set[Point]) -> bool:
        """True if parking at *candidate* leaves the free cells (off
        modules, faults, and all parked halos) 4-connected: a byte-mask
        flood fill seeded at the first free cell in column-major
        order."""
        w, h, area = grid.width, grid.height, grid.area
        static = grid._static
        hard = FAULTY | MODULE
        free = bytearray(1 if not static[i] & hard else 0 for i in range(area))
        for q in (*parked, candidate):
            for i in grid._halo_idxs(q):
                free[i] = 0
        total = 0
        seed = -1
        for x in range(w):
            for y in range(h):
                i = y * w + x
                if free[i]:
                    total += 1
                    if seed < 0:
                        seed = i
        if seed < 0:
            return False
        seen_count = 1
        free[seed] = 0  # reuse the mask as the visited filter
        stack = [seed]
        while stack:
            i = stack.pop()
            x, y = i % w, i // w
            for j in (
                i + 1 if x + 1 < w else -1,
                i - 1 if x > 0 else -1,
                i + w if y + 1 < h else -1,
                i - w if y > 0 else -1,
            ):
                if j >= 0 and free[j]:
                    free[j] = 0
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
