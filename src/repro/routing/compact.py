"""Route-compaction post-pass.

Prioritized routing is order-greedy: a net routed early commits to a
trajectory chosen before the later traffic existed, so it may detour or
stall around congestion that never materialized. Compaction exploits
hindsight — with every other trajectory fixed as reservations, each net
is re-routed from scratch and the new trajectory is kept only when it
strictly improves ``(arrival, moves)``. Worst routes are revisited
first; passes repeat until a fixed point, at most three times.

Acceptance is lexicographic on ``(arrival, moves)``, so per-net latency
is monotonically non-increasing; a route may trade waits for moves when
that lands the droplet earlier.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.routing.plan import RoutedNet
from repro.routing.prioritized import PrioritizedRouter
from repro.routing.timegrid import TimeGrid
from repro.util.errors import RoutingError


#: Sweeps over the nets before compaction stops improving anyway.
_MAX_PASSES = 3


def compact_routes(
    routed: Sequence[RoutedNet],
    grid: TimeGrid,
    router: PrioritizedRouter,
    horizon: int,
) -> list[RoutedNet]:
    """Re-route each net against the others' fixed reservations, for at
    most three sweeps.

    *grid* must hold exactly the reservations of *routed* (the state
    :meth:`PrioritizedRouter.route_all` leaves behind). Returns the
    compacted nets in the original order.
    """
    current: dict[str, RoutedNet] = {rn.net.net_id: rn for rn in routed}
    for _ in range(_MAX_PASSES):
        changed = False
        worst_first = sorted(
            current.values(),
            key=lambda rn: (-rn.latency, -rn.moves, rn.net.net_id),
        )
        for rn in worst_first:
            net_id = rn.net.net_id
            if rn.latency == rn.net.manhattan and rn.waits == 0:
                # Already at the lower bound: arrival and moves both
                # equal the Manhattan distance, so no candidate can be
                # lexicographically smaller — skip the re-route (the
                # remove/route/reserve dance would be a provable no-op).
                continue
            grid.remove_reservation(net_id)
            try:
                candidate = router.route_one(rn.net, grid, horizon)
            except RoutingError:
                # The old trajectory is always re-reservable, so keep it.
                candidate = rn
            if (candidate.latency, candidate.moves) < (rn.latency, rn.moves):
                current[net_id] = candidate
                changed = True
            grid.reserve(current[net_id], horizon)
        if not changed:
            break
    return [current[rn.net.net_id] for rn in routed]
