"""Prioritized time-expanded A* for concurrent droplet routing.

Nets are routed one at a time in criticality order (schedule-critical
nets first, longer hauls first on ties), each over the *time-expanded*
grid: states are ``(cell, step)`` pairs, moves are the four cell
neighbors plus wait-in-place, and every routed trajectory is reserved
in the :class:`~repro.routing.timegrid.TimeGrid` so later nets detour
or stall around it.

Unrouted droplets are not invisible: before a round starts, every
net's source is provisionally reserved as a parked droplet, so early
nets cannot plow through a droplet that has not moved yet.

When a net cannot be routed, the scheduler *negotiates*: the failed
net's priority is aged upward — along with the priorities of its
*trappers*, the nets whose parked droplets wall it in — and the batch
is re-routed in the new order, up to ``max_rounds`` times. A net that
still fails either raises :class:`~repro.util.errors.RoutingError`
(``strict``) or is reported as failed alongside the routed rest.

Negotiation is incremental: after the first full round, only the
failed nets and their boosted trappers are ripped up and re-routed
against the surviving reservations; the final budgeted round falls back
to a full re-route as a last resort. When the first round routes
everything (the overwhelmingly common case) this is exactly one round.

The search runs over the packed :class:`~repro.routing.timegrid.TimeGrid`
with flat integer states. The test suite keeps the original
full-round negotiation and a generic ``Point``-based search over the
original grid as oracles (``tests/oracles/``); both expand states in
the same canonical order and return identical trajectories.
"""

from __future__ import annotations

import heapq
from collections.abc import Iterable, Sequence

from repro.geometry import Point
from repro.routing.plan import Net, RoutedNet
from repro.routing.timegrid import FAULTY, MODULE, PARKED_HALO
from repro.util.errors import RoutingError

#: Priority boost added per failed round — large enough to outrank any
#: schedule-derived criticality, so starved nets jump the queue.
DEFAULT_AGING = 1_000.0

_STATIC_HARD = FAULTY | PARKED_HALO


def _entries_block(
    entries: list[tuple[str, str | None, str | None, bool, bool]],
    net_id: str,
    producer: str | None,
    consumer: str | None,
    prod_cells: frozenset[int],
    cons_cells: frozenset[int],
    idx: int,
) -> bool:
    """Foreign, non-exempt trajectory-halo entry present? Exemptions
    are two-sided: the queried cell must be in-zone *and* the entry's
    recorded origin flag must say the reserving position was too."""
    for eid, ep, ec, pok, cok in entries:
        if eid == net_id:
            continue
        if cok and ec is not None and ec == consumer and idx in cons_cells:
            continue
        if pok and ep is not None and ep == producer and idx in prod_cells:
            continue
        return True
    return False


def _tails_block(
    entries: list[tuple[str, str | None, str | None, int, bool, bool]],
    step: int,
    net_id: str,
    producer: str | None,
    consumer: str | None,
    prod_cells: frozenset[int],
    cons_cells: frozenset[int],
    idx: int,
) -> bool:
    """Foreign, non-exempt parked tail covering *step*?"""
    for eid, ep, ec, from_step, pok, cok in entries:
        if from_step > step or eid == net_id:
            continue
        if cok and ec is not None and ec == consumer and idx in cons_cells:
            continue
        if pok and ep is not None and ep == producer and idx in prod_cells:
            continue
        return True
    return False


class PrioritizedRouter:
    """Schedule-criticality prioritized router with bounded negotiation."""

    def __init__(
        self,
        max_rounds: int = 4,
        aging: float = DEFAULT_AGING,
        strict: bool = True,
    ) -> None:
        if max_rounds < 1:
            raise ValueError(f"max_rounds must be >= 1, got {max_rounds}")
        self.max_rounds = max_rounds
        self.aging = aging
        self.strict = strict
        #: Negotiation rounds the last route_all() actually ran.
        self.last_rounds = 0

    # -- batch interface -----------------------------------------------------

    def default_horizon(self, grid, nets: Sequence[Net]) -> int:
        """Step budget for one epoch: worst single haul plus congestion
        slack per net."""
        longest = max((n.manhattan for n in nets), default=0)
        return max(16, longest + grid.width + grid.height + 8 * len(nets))

    def route_all(
        self,
        nets: Iterable[Net],
        grid,
        horizon: int | None = None,
        strict: bool | None = None,
    ) -> tuple[list[RoutedNet], list[Net]]:
        """Route a batch concurrently; returns ``(routed, failed)``.

        The grid is left holding the reservations of the returned
        ``routed`` set (plus source parks for the failed), so a
        compaction pass can pick up where the negotiation ended.
        """
        strict = self.strict if strict is None else strict
        nets = list(nets)
        if not nets:
            return [], []
        ids = [n.net_id for n in nets]
        if len(set(ids)) != len(ids):
            raise ValueError("net ids within a batch must be unique")
        if horizon is None:
            horizon = self.default_horizon(grid, nets)

        routed, failed = self._negotiate(
            nets, grid, horizon, dict.fromkeys(ids, 0), self._source_adjacency(nets)
        )
        if failed and strict:
            names = ", ".join(n.net_id for n in failed)
            raise RoutingError(
                f"{len(failed)} net(s) unroutable after {self.max_rounds} "
                f"negotiation rounds: {names}"
            )
        return routed, failed

    @staticmethod
    def _source_adjacency(nets: Sequence[Net]) -> dict[str, tuple[str, ...]]:
        """Per-net trapper lists: nets whose source parks within
        Chebyshev distance 2 — precomputed once per batch from a
        source-cell index instead of an O(n^2) scan per failure."""
        by_cell: dict[tuple[int, int], list[int]] = {}
        for i, net in enumerate(nets):
            by_cell.setdefault((net.source[0], net.source[1]), []).append(i)
        out: dict[str, tuple[str, ...]] = {}
        for i, net in enumerate(nets):
            sx, sy = net.source
            near: set[int] = set()
            for dx in (-2, -1, 0, 1, 2):
                for dy in (-2, -1, 0, 1, 2):
                    bucket = by_cell.get((sx + dx, sy + dy))
                    if bucket:
                        near.update(bucket)
            near.discard(i)
            out[net.net_id] = tuple(nets[j].net_id for j in sorted(near))
        return out

    def _order_key(self, failures: dict[str, int]):
        aging = self.aging

        def key(n: Net):
            return (-(n.priority + aging * failures[n.net_id]), -n.manhattan, n.net_id)

        return key

    def _negotiate(
        self,
        nets: list[Net],
        grid,
        horizon: int,
        failures: dict[str, int],
        trappers: dict[str, tuple[str, ...]],
    ) -> tuple[list[RoutedNet], list[Net]]:
        """Rip-up negotiation: after the first full round, only failed
        nets and their boosted trappers are re-routed against the
        surviving reservations; the final budgeted round is a full
        re-route kept as a last resort."""
        key = self._order_key(failures)
        order = sorted(nets, key=key)
        routed, failed = self._route_round(order, grid, horizon)
        self.last_rounds = 1
        if not failed:
            return routed, []
        best = (routed, failed)
        grid_holds_best = True
        for rounds in range(2, self.max_rounds + 1):
            self._age(failed, failures, trappers)
            if rounds == self.max_rounds:
                routed, failed = self._route_round(sorted(nets, key=key), grid, horizon)
            else:
                routed, failed = self._reroute_subset(
                    routed, failed, trappers, grid, horizon, key
                )
            self.last_rounds = rounds
            if not failed:
                return routed, []
            if len(failed) < len(best[1]):
                best = (routed, failed)
                grid_holds_best = True
            else:
                grid_holds_best = False
        routed, failed = best
        if not grid_holds_best:
            self._rebuild(grid, routed, failed, horizon)
        return routed, failed

    def _reroute_subset(
        self,
        routed: list[RoutedNet],
        failed: list[Net],
        trappers: dict[str, tuple[str, ...]],
        grid,
        horizon: int,
        key,
    ) -> tuple[list[RoutedNet], list[Net]]:
        """One incremental round: rip up the failed nets' trappers, park
        everything ripped up, then re-route the set in aged order
        against the untouched survivors."""
        ripup_ids = {n.net_id for n in failed}
        for net in failed:
            ripup_ids.update(trappers[net.net_id])
        survivors = [rn for rn in routed if rn.net.net_id not in ripup_ids]
        victims = [rn for rn in routed if rn.net.net_id in ripup_ids]
        for rn in victims:
            grid.remove_reservation(rn.net.net_id)
            grid.reserve(RoutedNet(rn.net, (rn.net.source,)), horizon)
        # Failed nets are already parked at their sources by the
        # previous round; only the victims needed re-parking.
        new_routed = list(survivors)
        new_failed: list[Net] = []
        for net in sorted([rn.net for rn in victims] + failed, key=key):
            grid.remove_reservation(net.net_id)
            try:
                rn = self.route_one(net, grid, horizon)
            except RoutingError:
                new_failed.append(net)
                grid.reserve(RoutedNet(net, (net.source,)), horizon)
                continue
            grid.reserve(rn, horizon)
            new_routed.append(rn)
        victim_ids = {rn.net.net_id for rn in victims}
        if any(net.net_id in victim_ids for net in new_failed):
            # A previously-routed trapper could not be re-routed and is
            # now stranded at its source. The untouched survivors were
            # routed against its *old trajectory*, so their paths may
            # violate the fluidic constraint around the new park — the
            # partial result is unsound. A clean full round (every
            # source parked up front) is the sound repair.
            all_nets = sorted([rn.net for rn in routed] + failed, key=key)
            return self._route_round(all_nets, grid, horizon)
        return new_routed, new_failed

    def _age(
        self,
        failed: Sequence[Net],
        failures: dict[str, int],
        trappers: dict[str, tuple[str, ...]],
    ) -> None:
        """Age a failed round's priorities. Yield negotiation: a net
        whose droplet starts walled in by a neighbor's still-parked
        droplet cannot be helped by promoting itself — the *neighbor*
        must route first and clear the way. Boost the trappers harder
        than the trapped."""
        for net in failed:
            failures[net.net_id] += 1
            for trapper_id in trappers[net.net_id]:
                failures[trapper_id] += 2

    @staticmethod
    def _rebuild(grid, routed: Sequence[RoutedNet], failed: Sequence[Net], horizon: int) -> None:
        grid.clear_reservations()
        for net in failed:
            grid.reserve(RoutedNet(net, (net.source,)), horizon)
        for rn in routed:
            grid.reserve(rn, horizon)

    def _route_round(
        self, order: Sequence[Net], grid, horizon: int
    ) -> tuple[list[RoutedNet], list[Net]]:
        grid.clear_reservations()
        for net in order:
            grid.reserve(RoutedNet(net, (net.source,)), horizon)
        routed: list[RoutedNet] = []
        failed: list[Net] = []
        for net in order:
            grid.remove_reservation(net.net_id)
            try:
                rn = self.route_one(net, grid, horizon)
            except RoutingError:
                failed.append(net)
                grid.reserve(RoutedNet(net, (net.source,)), horizon)
                continue
            grid.reserve(rn, horizon)
            routed.append(rn)
        return routed, failed

    # -- single-net search ---------------------------------------------------

    def route_one(self, net: Net, grid, horizon: int) -> RoutedNet:
        """Time-expanded A* for one net against the grid's current
        reservations. Raises :class:`RoutingError` when no trajectory
        arrives (and can stay parked) within *horizon* steps."""
        start, goal = net.source, net.goal
        if not grid.in_bounds(start) or not grid.in_bounds(goal):
            raise RoutingError(f"net {net.net_id}: endpoints {start}->{goal} off-array")
        if grid.static_blocked(start, net.exempt_ops, ignore_parked_halo=True):
            # A droplet on a failed electrode or under a foreign module
            # cannot be actuated out; only a parked-droplet halo at the
            # source is grandfathered (the droplet is already there).
            raise RoutingError(
                f"net {net.net_id}: source {start} sits on a faulty cell "
                "or a foreign module footprint"
            )
        if start == goal:
            # The droplet is already where it needs to be (a module
            # reusing its producer's cells); no actuation required.
            return RoutedNet(net, (start,))
        if grid.static_blocked(goal, net.exempt_ops):
            raise RoutingError(
                f"net {net.net_id}: goal {goal} is statically blocked "
                "(faulty cell, parked-droplet halo, or foreign module)"
            )
        return self._search(net, grid, horizon)

    def _search(self, net: Net, grid, horizon: int) -> RoutedNet:
        """The hot path: flat integer states over the packed grid.

        A state is ``step*area + idx`` — the same key the grid uses for
        its halo entries, so each reservation probe is one dict lookup.
        States expand in the canonical order (wait, +x, -x, +y, -y) and
        equal-cost ties pop in push order.
        """
        start, goal = net.source, net.goal
        width, height, area = grid.width, grid.height, grid.area
        src = (start[1] - 1) * width + (start[0] - 1)
        dst = (goal[1] - 1) * width + (goal[0] - 1)
        static = grid._static
        module_cells = grid._module_cells
        halo = grid._halo
        tails = grid._tail
        neighbor_table = grid.neighbors
        exempt = net.exempt_ops
        net_id, producer, consumer = net.net_id, net.producer, net.consumer
        prod_cells = grid.region_idxs(producer)
        cons_cells = grid.region_idxs(consumer)

        # Per-cell Manhattan distance to the goal, row by row.
        gx, gy = goal
        dist: list[int] = []
        for y in range(1, height + 1):
            dy = abs(y - gy)
            dist.extend(abs(x - gx) + dy for x in range(1, width + 1))

        heappush, heappop = heapq.heappush, heapq.heappop
        open_heap: list[tuple[int, int, int, int]] = [(dist[src], 0, 0, src)]
        came_from: dict[int, int] = {}
        seen: set[int] = {src}
        pushes = 1
        while open_heap:
            _, step, _, idx = heappop(open_heap)
            if idx == dst and self._tail_free_packed(
                grid, dst, step, horizon, net_id, producer, consumer,
                prod_cells, cons_cells,
            ):
                return RoutedNet(
                    net, self._reconstruct_packed(grid, came_from, step * area + idx)
                )
            if step >= horizon:
                continue
            nstep = step + 1
            base = nstep * area
            here = step * area + idx
            for nidx in neighbor_table[idx]:
                state = base + nidx
                if state in seen:
                    continue
                m = static[nidx]
                if nidx == src:
                    # Source grandfather: reservations and parked halos
                    # never evict a droplet from its own parking spot.
                    if m & FAULTY:
                        continue
                    if m & MODULE and not module_cells[nidx] <= exempt:
                        continue
                else:
                    if m:
                        if m & _STATIC_HARD:
                            continue
                        if not module_cells[nidx] <= exempt:
                            continue
                    entries = halo.get(state)
                    if entries is not None and _entries_block(
                        entries, net_id, producer, consumer,
                        prod_cells, cons_cells, nidx,
                    ):
                        continue
                    tail_entries = tails.get(nidx)
                    if tail_entries is not None and _tails_block(
                        tail_entries, nstep, net_id, producer, consumer,
                        prod_cells, cons_cells, nidx,
                    ):
                        continue
                seen.add(state)
                came_from[state] = here
                heappush(open_heap, (nstep + dist[nidx], nstep, pushes, nidx))
                pushes += 1
        raise RoutingError(
            f"net {net.net_id}: no trajectory {start} -> {goal} within "
            f"{horizon} steps on {grid}"
        )

    @staticmethod
    def _tail_free_packed(
        grid,
        dst: int,
        step: int,
        horizon: int,
        net_id: str,
        producer: str | None,
        consumer: str | None,
        prod_cells: frozenset[int],
        cons_cells: frozenset[int],
    ) -> bool:
        """After arrival the droplet parks at its goal; the cell must
        stay clear of other reservations through the horizon. Parked
        tails answer in O(entries); trajectory halos are scanned only up
        to the cell's reserved-free-from bound, not the horizon."""
        tail_entries = grid._tail.get(dst)
        if tail_entries:
            for eid, ep, ec, from_step, pok, cok in tail_entries:
                if eid == net_id:
                    continue
                if max(from_step, step + 1) > horizon:
                    continue
                if cok and ec is not None and ec == consumer and dst in cons_cells:
                    continue
                if pok and ep is not None and ep == producer and dst in prod_cells:
                    continue
                return False
        last = grid._cell_last.get(dst, -1)
        if last <= step:
            return True
        halo = grid._halo
        area = grid.area
        for s in range(step + 1, min(last, horizon) + 1):
            entries = halo.get(s * area + dst)
            if entries is not None and _entries_block(
                entries, net_id, producer, consumer, prod_cells, cons_cells, dst
            ):
                return False
        return True

    @staticmethod
    def _reconstruct_packed(
        grid, came_from: dict[int, int], state: int
    ) -> tuple[Point, ...]:
        area = grid.area
        points = grid._points
        path = [points[state % area]]
        while state in came_from:
            state = came_from[state]
            path.append(points[state % area])
        return tuple(reversed(path))
