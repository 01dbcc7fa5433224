"""Packed-integer transport kernel for the simulator's replay.

:class:`PackedDropletRouter` answers the one query ad-hoc droplet
transport needs — shortest droplet path length under module
footprints, faulty cells, and the one-cell fluidic inflation ring — on
a flat integer grid: cells are ``(y - 1) * width + (x - 1)`` indices
into stamped scratch arrays, the blocked set is marked through
precomputed per-rect index lists and per-cell neighbor tables, and the
search is a plain breadth-first wave (unit edge costs make its depth
the shortest path length, and the replay layer only consumes lengths
and endpoints, never the cell sequence). Stamped arrays make per-query
setup O(marked cells), not O(area): bumping one integer invalidates
every previous mark.

An unroutable query raises :class:`~repro.util.errors.RoutingError`
naming the endpoints, the array and the number of blocked in-bounds
cells; the simulator's non-strict mode surfaces that text as a failure
reason. The test suite keeps a per-``Point`` A* router
(``tests/oracles/``) with the same obstacle semantics and the same
failure text, and asserts the two agree query for query.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from repro.geometry import Point, Rect
from repro.util.errors import RoutingError

__all__ = ["FastRoute", "PackedDropletRouter"]


@dataclass(frozen=True)
class FastRoute:
    """A shortest transport: endpoints and actuation-step count (the
    cell sequence is never materialized)."""

    start: Point
    end: Point
    length: int


class PackedDropletRouter:
    """Flat-integer BFS router with fluidic spacing."""

    def __init__(self, width: int, height: int) -> None:
        if width < 1 or height < 1:
            raise ValueError(f"array dimensions must be >= 1, got {width}x{height}")
        self.width = width
        self.height = height
        area = width * height
        self._area = area
        # Per-cell in-bounds neighbor tables: 4-adjacency for the wave,
        # the full 8-ring for the fluidic inflation of parked droplets.
        nbr4: list[tuple[int, ...]] = [()] * area
        ring8: list[tuple[int, ...]] = [()] * area
        for y in range(1, height + 1):
            base = (y - 1) * width
            for x in range(1, width + 1):
                idx = base + (x - 1)
                four = []
                ring = []
                for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                    nx, ny = x + dx, y + dy
                    if 1 <= nx <= width and 1 <= ny <= height:
                        four.append((ny - 1) * width + (nx - 1))
                for dx in (-1, 0, 1):
                    for dy in (-1, 0, 1):
                        if dx == 0 and dy == 0:
                            continue
                        nx, ny = x + dx, y + dy
                        if 1 <= nx <= width and 1 <= ny <= height:
                            ring.append((ny - 1) * width + (nx - 1))
                nbr4[idx] = tuple(four)
                ring8[idx] = tuple(ring)
        self._nbr4 = nbr4
        self._ring8 = ring8
        # Stamped scratch arrays: a cell is blocked/visited in this
        # query iff its stamp equals the query's stamp.
        self._blocked = [0] * area
        self._visited = [0] * area
        self._stamp = 0
        #: Footprint index lists, cached per rect geometry (module
        #: footprints repeat across every transport of a run).
        self._rect_idxs: dict[tuple[int, int, int, int], list[int]] = {}
        #: Queries memoized by full obstacle signature — sound because
        #: a query is pure: the outcome depends only on the arguments.
        #: Successes store the route; failures store the error message
        #: (str), re-raised verbatim. Monte-Carlo
        #: sweeps and checkpoint/resume replay the same transports —
        #: including the same degradation-ladder failures — run after
        #: run.
        self._memo: dict[tuple, FastRoute | str] = {}

    def _idx(self, p: Point) -> int:
        return (p[1] - 1) * self.width + (p[0] - 1)

    def _remember(self, key: tuple, outcome: FastRoute | str):
        if len(self._memo) >= 65536:  # bound memory on adversarial grids
            self._memo.clear()
        self._memo[key] = outcome
        return outcome

    def _rect_cells(self, rect: Rect) -> list[int]:
        key = (rect.x, rect.y, rect.width, rect.height)
        idxs = self._rect_idxs.get(key)
        if idxs is None:
            w = self.width
            idxs = [
                (y - 1) * w + (x - 1)
                for y in range(rect.y, rect.y + rect.height)
                for x in range(rect.x, rect.x + rect.width)
                if 1 <= x <= w and 1 <= y <= self.height
            ]
            self._rect_idxs[key] = idxs
        return idxs

    def route(
        self,
        start: Point,
        goal: Point,
        blocked_rects: Iterable[Rect] = (),
        blocked_cells: Iterable[Point] = (),
        other_droplets: Iterable[Point] = (),
        inflate: bool = True,
    ) -> FastRoute:
        """Shortest path length from *start* to *goal*.

        * *blocked_rects* — footprints of concurrently operating modules
          (the route may not enter any of their cells).
        * *blocked_cells* — faulty cells and other point obstacles.
        * *other_droplets* — parked droplets; each blocks its cell and,
          with *inflate*, its 8-neighbor ring (the static fluidic
          constraint). The droplet sitting on *goal* is exempt — merging
          is the point. Passing
          ``inflate=False`` models a controller that momentarily
          shuffles parked droplets half a pitch aside.

        *start* and *goal* are never blocked. Raises
        :class:`RoutingError` when an endpoint is off the array or no
        path exists.
        """
        key = (
            start,
            goal,
            tuple(blocked_rects),
            tuple(blocked_cells),
            tuple(other_droplets),
            inflate,
        )
        hit = self._memo.get(key)
        if hit is not None:
            if isinstance(hit, str):
                raise RoutingError(hit)
            return hit
        blocked_rects, blocked_cells, other_droplets = key[2], key[3], key[4]
        in_start = 1 <= start[0] <= self.width and 1 <= start[1] <= self.height
        in_goal = 1 <= goal[0] <= self.width and 1 <= goal[1] <= self.height
        if not in_start or not in_goal:
            raise RoutingError(f"route endpoints {start}->{goal} outside the array")

        self._stamp += 1
        stamp = self._stamp
        blocked = self._blocked
        width, height = self.width, self.height
        for rect in blocked_rects:
            for idx in self._rect_cells(rect):
                blocked[idx] = stamp
        for c in blocked_cells:
            x, y = c[0], c[1]
            if 1 <= x <= width and 1 <= y <= height:
                blocked[(y - 1) * width + (x - 1)] = stamp
        ring8 = self._ring8
        for d in other_droplets:
            x, y = d[0], d[1]
            if x == goal[0] and y == goal[1]:
                continue
            if 1 <= x <= width and 1 <= y <= height:
                idx = (y - 1) * width + (x - 1)
                blocked[idx] = stamp
                if inflate:
                    for n in ring8[idx]:
                        blocked[n] = stamp
            elif inflate:
                # An out-of-bounds parked droplet still shadows its
                # in-bounds ring cells.
                for dx in (-1, 0, 1):
                    for dy in (-1, 0, 1):
                        nx, ny = x + dx, y + dy
                        if 1 <= nx <= width and 1 <= ny <= height:
                            blocked[(ny - 1) * width + (nx - 1)] = stamp

        start_idx = self._idx(start)
        goal_idx = self._idx(goal)
        blocked[start_idx] = 0
        blocked[goal_idx] = 0
        if start_idx == goal_idx:
            return self._remember(key, FastRoute(start=start, end=goal, length=0))

        # Two-list BFS wave; unit costs make its depth the shortest
        # path length.
        visited = self._visited
        nbr4 = self._nbr4
        visited[start_idx] = stamp
        frontier = [start_idx]
        depth = 0
        while frontier:
            depth += 1
            nxt: list[int] = []
            for idx in frontier:
                for n in nbr4[idx]:
                    if visited[n] == stamp or blocked[n] == stamp:
                        continue
                    if n == goal_idx:
                        return self._remember(
                            key, FastRoute(start=start, end=goal, length=depth)
                        )
                    visited[n] = stamp
                    nxt.append(n)
            frontier = nxt
        # Unroutable: memoize the message so replays of the same
        # failing query skip the search.
        message = (
            f"no droplet path {start} -> {goal} on {width}x{height} "
            f"array with {blocked.count(stamp)} blocked cells"
        )
        self._remember(key, message)
        raise RoutingError(message)
