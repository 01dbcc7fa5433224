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


def _require_adjacent(path: list[Point]) -> None:
    """Raise unless every consecutive pair of *path*'s cells is adjacent
    (a real droplet moves one electrode pitch per actuation)."""
    for prev, nxt in zip(path, path[1:]):
        if prev.manhattan_distance(nxt) != 1:
            raise ValueError(
                f"test path is not cell-adjacent between {prev} and {nxt}"
            )


class PlannedPath(list):
    """A test path whose cells were checked adjacent once, when it was
    planned (:func:`free_cell_paths` returns these).

    :meth:`TestDroplet.walk` does not check one again: the probe loop
    walks its memoized walks many times. Never mutate one."""

    def __init__(self, cells: list[Point]) -> None:
        super().__init__(cells)
        _require_adjacent(self)


class TestDroplet:
    """Simulates a test droplet walking a planned path."""

    def walk(self, dead_cells: frozenset[Point], path: list[Point]) -> TestOutcome:
        """Walk *path*; stall at the first of the *dead_cells* on it.

        The path must be non-empty and consist of adjacent cells; that
        is checked here unless *path* is a :class:`PlannedPath`, which
        was checked when it was planned.
        """
        if not path:
            raise ValueError("test path must contain at least one cell")
        if type(path) is not PlannedPath:
            _require_adjacent(path)
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


def snake_path(width: int, height: int) -> list[Point]:
    """Boustrophedon walk covering every cell of a ``width x height`` array.

    This is the standard off-line test pattern: a single droplet snakes
    from the bottom-left cell across the whole array, visiting each cell
    exactly once, ending at the sink corner.
    """
    if width < 1 or height < 1:
        raise ValueError(f"array dimensions must be >= 1, got {width}x{height}")
    path = []
    for i, y in enumerate(range(1, height + 1)):
        cols = range(1, width + 1) if i % 2 == 0 else range(width, 0, -1)
        path.extend(Point(x, y) for x in cols)
    return path


def free_cell_paths(
    placement: Placement,
    at_time: float,
    width: int | None = None,
    height: int | None = None,
) -> list[PlannedPath]:
    """Coverage walks over cells *not* used by modules active at *at_time*.

    This is the concurrent-testing pattern of the paper's reference
    [14]: test droplets may only use spare cells, so they must not
    disturb operating modules. Free cells may be disconnected by module
    footprints; each connected component gets its own walk (one test
    droplet per component), built as a DFS traversal with backtracking —
    droplets may revisit cells, so the walk length is at most twice the
    component size. Components are walked in order of their least cell,
    and each step tries the neighbours in ``Point`` order.

    The walks are planned on one padded, x-major flat index, cell
    ``(x, y)`` at ``x * (h + 2) + y``: index order is ``Point`` order,
    the neighbour steps ``-(h + 2), -1, +1, +(h + 2)`` are in ``Point``
    order too, and the one-cell border of zeros stops every walk at the
    array edge. Footprints are clipped to the ``w x h`` array. Each
    walk is a :class:`PlannedPath`, checked cell-adjacent here once.
    """
    w = width if width is not None else placement.core_width
    h = height if height is not None else placement.core_height
    if w < 1 or h < 1:
        raise ValueError(f"grid dimensions must be >= 1, got {w}x{h}")
    stride = h + 2
    # unwalked[i] is 1 while cell i is free and not yet walked.
    column = b"\x00" + b"\x01" * h + b"\x00"
    unwalked = bytearray(bytes(stride) + column * w + bytes(stride))
    for pm in placement.active_at(at_time):
        rect = pm.footprint
        y1 = max(rect.y, 1)
        y2 = min(rect.y2, h)
        if y2 < y1:
            continue
        taken = bytes(y2 - y1 + 1)
        for x in range(max(rect.x, 1), min(rect.x2, w) + 1):
            unwalked[x * stride + y1 : x * stride + y2 + 1] = taken
    steps = (-stride, -1, 1, stride)
    paths: list[list[Point]] = []
    start = unwalked.find(1)
    while start >= 0:
        unwalked[start] = 0
        here = Point(*divmod(start, stride))
        walk = [here]
        # (cell, index of its next neighbour step, its Point) per DFS
        # level; a backtrack step re-enters the parent's Point.
        stack = [(start, 0, here)]
        while stack:
            node, k, here = stack.pop()
            while k < 4:
                nxt = node + steps[k]
                k += 1
                if unwalked[nxt]:
                    unwalked[nxt] = 0
                    cell = Point(*divmod(nxt, stride))
                    walk.append(cell)
                    stack.append((node, k, here))
                    stack.append((nxt, 0, cell))
                    break
            else:
                if stack:
                    walk.append(stack[-1][2])  # backtrack step
        paths.append(PlannedPath(walk))
        start = unwalked.find(1, start + 1)
    return paths
