"""Test droplet planning and walk simulation.

A test droplet detects faults *functionally*: a cell whose electrode
cannot actuate will not pull the droplet forward, so the droplet stalls
at the cell preceding the fault and never reaches the sink. Planning
amounts to choosing walks that cover the cells under test; simulation
replays a walk against the array's true fault state, the set of dead
cells (one bit per electrode: healthy or faulty).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.geometry import Point
from repro.placement.model import Placement


@dataclass(frozen=True)
class TestOutcome:
    """Result of walking one test path."""

    #: True if the droplet traversed the whole path.
    passed: bool
    #: Cells actually visited (prefix of the path).
    steps_taken: int
    #: Length of the planned path.
    path_length: int
    #: The cell the droplet could not enter (None when passed). This is
    #: ground truth from the simulation — detection hardware only
    #: observes arrival/non-arrival; use FaultLocalizer to recover it.
    stalled_before: Point | None


class TestDroplet:
    """Simulates a test droplet walking a planned path."""

    def walk(self, dead_cells: frozenset[Point], path: list[Point]) -> TestOutcome:
        """Walk *path*; stall at the first of the *dead_cells* on it.

        The path must start on a healthy cell and consist of adjacent
        cells (a real droplet moves one electrode pitch per actuation).
        """
        if not path:
            raise ValueError("test path must contain at least one cell")
        for prev, nxt in zip(path, path[1:]):
            if prev.manhattan_distance(nxt) != 1:
                raise ValueError(
                    f"test path is not cell-adjacent between {prev} and {nxt}"
                )
        if path[0] in dead_cells:
            return TestOutcome(
                passed=False, steps_taken=0, path_length=len(path), stalled_before=path[0]
            )
        steps = 1
        for cell in path[1:]:
            if cell in dead_cells:
                return TestOutcome(
                    passed=False,
                    steps_taken=steps,
                    path_length=len(path),
                    stalled_before=cell,
                )
            steps += 1
        return TestOutcome(
            passed=True, steps_taken=steps, path_length=len(path), stalled_before=None
        )


def snake_path(
    width: int, height: int, start_bottom_left: bool = True
) -> list[Point]:
    """Boustrophedon walk covering every cell of a ``width x height`` array.

    This is the standard off-line test pattern: a single droplet snakes
    across the whole array, visiting each cell exactly once, ending at
    the sink corner.
    """
    if width < 1 or height < 1:
        raise ValueError(f"array dimensions must be >= 1, got {width}x{height}")
    path = []
    rows = range(1, height + 1) if start_bottom_left else range(height, 0, -1)
    for i, y in enumerate(rows):
        cols = range(1, width + 1) if i % 2 == 0 else range(width, 0, -1)
        path.extend(Point(x, y) for x in cols)
    return path


def free_cell_paths(
    placement: Placement,
    at_time: float,
    width: int | None = None,
    height: int | None = None,
) -> list[list[Point]]:
    """Coverage walks over cells *not* used by modules active at *at_time*.

    This is the concurrent-testing pattern of the paper's reference
    [14]: test droplets may only use spare cells, so they must not
    disturb operating modules. Free cells may be disconnected by module
    footprints; each connected component gets its own walk (one test
    droplet per component), built as a DFS traversal with backtracking —
    droplets may revisit cells, so the walk length is at most twice the
    component size.
    """
    w = width if width is not None else placement.core_width
    h = height if height is not None else placement.core_height
    occupied = placement.occupancy_at(at_time, width=w, height=h)
    free = {
        Point(x, y)
        for y in range(1, h + 1)
        for x in range(1, w + 1)
        if not occupied.is_occupied((x, y))
    }
    paths: list[list[Point]] = []
    remaining = set(free)
    while remaining:
        start = min(remaining)  # deterministic component order
        walk: list[Point] = []
        stack = [(start, iter(_free_neighbors(start, free)))]
        visited = {start}
        walk.append(start)
        while stack:
            node, neighbors = stack[-1]
            advanced = False
            for nxt in neighbors:
                if nxt not in visited:
                    visited.add(nxt)
                    walk.append(nxt)
                    stack.append((nxt, iter(_free_neighbors(nxt, free))))
                    advanced = True
                    break
            if not advanced:
                stack.pop()
                if stack:
                    walk.append(stack[-1][0])  # backtrack step
        paths.append(walk)
        remaining -= visited
    return paths


def _free_neighbors(p: Point, free: set[Point]) -> list[Point]:
    return sorted(q for q in p.neighbors4() if q in free)
