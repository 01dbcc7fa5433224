"""Bitboard transport kernel for the simulator's replay.

:class:`PackedDropletRouter` answers the one query ad-hoc droplet
transport needs — shortest droplet path length under module
footprints, faulty cells, and the one-cell fluidic inflation ring — on
a bitboard: one Python int over the array padded by one cell on each
side, bit ``x * (height + 2) + y`` for cell ``(x, y)``. A module
footprint is a column run times a comb with one bit per covered
column, a faulty cell is one bit, and a parked droplet is its 3x3 ring
(its own cell when the ring is waived) shifted into place; every
obstacle is clipped to the array. The search is a breadth-first wave
over the whole board at once: each step shifts the frontier by
``+-1`` (y) and ``+-(height + 2)`` (x) and masks it with the free
cells, and the padding is never free, so no shift wraps between
columns. Unit edge costs make the wave count the shortest path length,
and the replay layer only consumes lengths and endpoints, never the
cell sequence.

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
    """Bit-parallel BFS router with fluidic spacing."""

    def __init__(self, width: int, height: int) -> None:
        if width < 1 or height < 1:
            raise ValueError(f"array dimensions must be >= 1, got {width}x{height}")
        self.width = width
        self.height = height
        stride = height + 2
        self._stride = stride
        #: One bit at ``y = 0`` of every padded column.
        self._comb = ((1 << ((width + 2) * stride)) - 1) // ((1 << stride) - 1)
        self._inside = self._box(1, 1, width, height)
        #: A droplet's 3x3 ring, its corner cell at bit 0.
        self._ring = 0b111 * (1 | (1 << stride) | (1 << (2 * stride)))
        #: Queries memoized by full obstacle signature — sound because
        #: a query is pure: the outcome depends only on the arguments.
        #: Successes store the route; failures store the error message
        #: (str), re-raised verbatim. Monte-Carlo
        #: sweeps and checkpoint/resume replay the same transports —
        #: including the same degradation-ladder failures — run after
        #: run.
        self._memo: dict[tuple, FastRoute | str] = {}

    def _box(self, x1: int, y1: int, x2: int, y2: int) -> int:
        """Bits of the in-bounds cells of ``[x1, x2] x [y1, y2]``."""
        x1, x2 = max(x1, 1), min(x2, self.width)
        y1, y2 = max(y1, 1), min(y2, self.height)
        if x1 > x2 or y1 > y2:
            return 0
        s = self._stride
        columns = self._comb & ((1 << ((x2 + 1) * s)) - (1 << (x1 * s)))
        return columns * ((1 << (y2 + 1)) - (1 << y1))

    def _remember(self, key: tuple, outcome: FastRoute | str):
        if len(self._memo) >= 65536:  # bound memory on adversarial grids
            self._memo.clear()
        self._memo[key] = outcome
        return outcome

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
        width, height = self.width, self.height
        if not (
            1 <= start[0] <= width and 1 <= start[1] <= height
            and 1 <= goal[0] <= width and 1 <= goal[1] <= height
        ):
            raise RoutingError(f"route endpoints {start}->{goal} outside the array")
        if start == goal:
            return self._remember(key, FastRoute(start=start, end=goal, length=0))

        s = self._stride
        box = self._box
        blocked = 0
        for r in key[2]:
            blocked |= box(r.x, r.y, r.x + r.width - 1, r.y + r.height - 1)
        for x, y in key[3]:
            if 1 <= x <= width and 1 <= y <= height:
                blocked |= 1 << (x * s + y)
        ring = self._ring if inflate else 1 << (s + 1)
        for x, y in key[4]:
            if x == goal[0] and y == goal[1]:
                continue
            if 1 <= x <= width and 1 <= y <= height:
                blocked |= ring << ((x - 1) * s + y - 1)
            elif inflate:
                # An off-array droplet still shadows its on-array ring.
                blocked |= box(x - 1, y - 1, x + 1, y + 1)
        front = 1 << (start[0] * s + start[1])
        target = 1 << (goal[0] * s + goal[1])
        # The padding the in-bounds rings spill onto is never blocked.
        inside = self._inside
        blocked &= inside & ~(front | target)

        # Whole-board BFS waves; unit costs make the wave count the
        # shortest path length.
        free = inside ^ blocked ^ front
        depth = 0
        while front:
            depth += 1
            front = ((front << 1) | (front >> 1) | (front << s) | (front >> s)) & free
            if front & target:
                return self._remember(key, FastRoute(start=start, end=goal, length=depth))
            free ^= front
        # Unroutable: memoize the message so replays of the same
        # failing query skip the search.
        message = (
            f"no droplet path {start} -> {goal} on {width}x{height} "
            f"array with {blocked.bit_count()} blocked cells"
        )
        self._remember(key, message)
        raise RoutingError(message)
