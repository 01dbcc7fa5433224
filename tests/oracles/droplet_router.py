"""Per-``Point`` A* droplet router: the oracle for the bitboard kernel.

The simulator's ad-hoc transports run on
:class:`repro.sim.fastgrid.PackedDropletRouter`, a bit-parallel BFS
over one int per query. This is the straightforward implementation it
replaced: shortest
droplet paths that avoid faulty cells, stay off concurrently operating
modules' footprints, and respect the static fluidic constraint (each
parked droplet is inflated by one cell), found by A* over ``Point``
cells with unit step cost. Same obstacle semantics, same failure text
(the blocked count is in-bounds cells) — so the stepped simulator
oracle built on it must reproduce the production replay bit for bit,
failure reports included.
"""

from __future__ import annotations

import heapq
from collections.abc import Iterable
from dataclasses import dataclass

from repro.geometry import Point, Rect
from repro.util.errors import RoutingError


@dataclass(frozen=True)
class Route:
    """A cell-adjacent droplet path."""

    cells: tuple[Point, ...]

    @property
    def length(self) -> int:
        """Number of actuation steps (cells minus one)."""
        return max(0, len(self.cells) - 1)

    @property
    def start(self) -> Point:
        return self.cells[0]

    @property
    def end(self) -> Point:
        return self.cells[-1]

    def __iter__(self):
        return iter(self.cells)


class DropletRouter:
    """A* shortest-path router with fluidic spacing."""

    def __init__(self, width: int, height: int) -> None:
        if width < 1 or height < 1:
            raise ValueError(f"array dimensions must be >= 1, got {width}x{height}")
        self.width = width
        self.height = height

    def route(
        self,
        start: Point,
        goal: Point,
        blocked_rects: Iterable[Rect] = (),
        blocked_cells: Iterable[Point] = (),
        other_droplets: Iterable[Point] = (),
        inflate: bool = True,
    ) -> Route:
        """Shortest path from *start* to *goal*.

        * *blocked_rects* — footprints of concurrently operating modules
          (their segregation rings already isolate them; the router may
          not enter any of their cells).
        * *blocked_cells* — faulty cells and other point obstacles.
        * *other_droplets* — parked droplets; each is inflated by the
          one-cell static fluidic constraint (*inflate*). The *goal*
          droplet (if the route ends in a merge) is exempt — merging is
          the point. Passing
          ``inflate=False`` models a controller that momentarily shuffles
          parked droplets half a pitch aside to let traffic through.

        Raises :class:`RoutingError` when no path exists.
        """
        blocked: set[Point] = set()
        for rect in blocked_rects:
            blocked.update(rect.cells())
        blocked.update(Point(*c) for c in blocked_cells)
        for d in other_droplets:
            dp = Point(*d)
            if dp == goal:
                continue
            blocked.add(dp)
            if inflate:
                for n in dp.neighbors4():
                    blocked.add(n)
                # Diagonal neighbors also violate the static constraint.
                for dx in (-1, 1):
                    for dy in (-1, 1):
                        blocked.add(Point(dp.x + dx, dp.y + dy))
        blocked.discard(start)
        blocked.discard(goal)

        if not self._in_bounds(start) or not self._in_bounds(goal):
            raise RoutingError(f"route endpoints {start}->{goal} outside the array")
        if start == goal:
            return Route(cells=(start,))

        # A* with Manhattan heuristic (admissible on a 4-connected grid).
        open_heap: list[tuple[int, int, Point]] = []
        heapq.heappush(open_heap, (start.manhattan_distance(goal), 0, start))
        g_score: dict[Point, int] = {start: 0}
        came_from: dict[Point, Point] = {}
        while open_heap:
            _, g, node = heapq.heappop(open_heap)
            if node == goal:
                return Route(cells=self._reconstruct(came_from, node))
            if g > g_score.get(node, float("inf")):
                continue  # stale heap entry
            for nxt in node.neighbors4():
                if not self._in_bounds(nxt) or nxt in blocked:
                    continue
                tentative = g + 1
                if tentative < g_score.get(nxt, float("inf")):
                    g_score[nxt] = tentative
                    came_from[nxt] = node
                    heapq.heappush(
                        open_heap,
                        (tentative + nxt.manhattan_distance(goal), tentative, nxt),
                    )
        in_bounds = sum(1 for p in blocked if self._in_bounds(p))
        raise RoutingError(
            f"no droplet path {start} -> {goal} on {self.width}x{self.height} "
            f"array with {in_bounds} blocked cells"
        )

    def _in_bounds(self, p: Point) -> bool:
        return 1 <= p.x <= self.width and 1 <= p.y <= self.height

    @staticmethod
    def _reconstruct(came_from: dict[Point, Point], node: Point) -> tuple[Point, ...]:
        path = [node]
        while node in came_from:
            node = came_from[node]
            path.append(node)
        return tuple(reversed(path))
