"""Reference probe primitives: the oracle for the flat-index planner and
the single-walk localizer.

* :func:`reference_free_cell_paths` plans the concurrent test walks on
  ``Point`` sets: the array cells outside every footprint active at the
  instant, the
  least remaining cell as each component's start, and sorted free
  neighbours at every DFS step.
  :func:`repro.testing.test_droplet.free_cell_paths` plans on one
  padded flat index instead and must return the same walks.
* :class:`ReferenceLocalizer` walks every probe, one
  :meth:`~repro.testing.test_droplet.TestDroplet.walk` of the probed
  prefix per vote. :meth:`repro.testing.localize.FaultLocalizer.localize`
  walks the path once and must give the same result and draw the same
  sensor noise.
"""

from __future__ import annotations

import random

from repro.geometry import Point
from repro.placement.model import Placement
from repro.testing.localize import FaultLocalizer, LocalizationResult


def reference_free_cell_paths(
    placement: Placement,
    at_time: float,
    width: int | None = None,
    height: int | None = None,
) -> list[list[Point]]:
    """Coverage walks over the cells free at *at_time*, one DFS walk
    with backtracking per connected free component."""
    w = width if width is not None else placement.core_width
    h = height if height is not None else placement.core_height
    if w < 1 or h < 1:
        raise ValueError(f"grid dimensions must be >= 1, got {w}x{h}")
    used = {c for pm in placement.active_at(at_time) for c in pm.footprint.cells()}
    free = {
        Point(x, y)
        for y in range(1, h + 1)
        for x in range(1, w + 1)
        if Point(x, y) not in used
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


class ReferenceLocalizer(FaultLocalizer):
    """Bisection that walks the probed prefix once per vote."""

    def _passes(
        self,
        dead_cells: frozenset[Point],
        path: list[Point],
        rng: random.Random | None = None,
    ) -> tuple[bool, int]:
        """Majority-voted probe of one path: ``(reading, runs used)``."""
        passed = failed = 0
        need = self.votes // 2 + 1
        while passed < need and failed < need:
            outcome = self._droplet.walk(dead_cells, path)
            if self.sensor.observe(outcome.passed, rng):
                passed += 1
            else:
                failed += 1
        return passed >= need, passed + failed

    def localize(
        self,
        dead_cells: frozenset[Point],
        path: list[Point],
        rng: random.Random | None = None,
    ) -> LocalizationResult:
        """Full-path probe, then binary search over prefix lengths."""
        ok, runs = self._passes(dead_cells, path, rng)
        if ok:
            return LocalizationResult(faulty_cell=None, runs=runs)
        # Invariant: prefix of length lo passes; prefix of length hi fails.
        lo, hi = 0, len(path)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if mid > 0:
                ok, used = self._passes(dead_cells, path[:mid], rng)
            else:
                ok, used = True, 0
            runs += used
            if ok:
                lo = mid
            else:
                hi = mid
        return LocalizationResult(faulty_cell=path[hi - 1], runs=runs)
