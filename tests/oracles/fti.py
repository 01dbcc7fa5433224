"""FTI and MER oracles: the paper's literal procedure, brute force and
summed-area-table counting.

:func:`repro.fault.fti.compute_fti` decides every cell of a module's
footprint at once on a bitboard: the stuck cells are the intersection
of the feasible windows. Three references check it:

* ``"mer"`` — the paper's Section 5.3 procedure: per faulty cell, mark
  it occupied alongside the concurrent modules, enumerate maximal empty
  rectangles with the staircase sweep, and test whether any
  accommodates the module (:func:`fits_any_rectangle`);
* ``"bruteforce"`` — a direct per-cell, per-position scan in pure
  Python;
* ``"sat"`` — summed-area-table position counting: count, per cell, the
  feasible footprints that contain it with a 2-D difference array, and
  call the cell stuck when every feasible footprint does.

Each builds its own obstacle matrix from the placement: a module is an
obstacle to another when their half-open spans overlap.

:func:`reference_fti` runs any one and assembles the same
:class:`~repro.fault.fti.FTIReport` as ``compute_fti``, so parity tests
compare whole reports. :func:`brute_force_maximal_empty_rectangles` is
the quartic reference for
:func:`repro.fault.mer.find_maximal_empty_rectangles`.
"""

from __future__ import annotations

import numpy as np

from repro.fault.fti import FTIReport, ModuleRelocatability
from repro.fault.mer import _as_matrix, find_maximal_empty_rectangles
from repro.geometry import Point, Rect

#: The reference FTI algorithms :func:`reference_fti` accepts.
METHODS = ("mer", "bruteforce", "sat")


def reference_fti(
    placement,
    method: str,
    width: int | None = None,
    height: int | None = None,
    allow_rotation: bool = True,
) -> FTIReport:
    """The FTI report of *placement*, computed by the *method* reference.

    Array handling matches ``compute_fti``: by default the placement is
    normalized onto its bounding array.
    """
    analyze = {
        "mer": _analyze_mer,
        "bruteforce": _analyze_bruteforce,
        "sat": _analyze_sat,
    }[method]
    if width is None:
        placement = placement.normalized()
        width, height = placement.array_dims()
    per_module = {
        pm.op_id: analyze(placement, pm, width, height, allow_rotation)
        for pm in placement
    }
    uncovered = set()
    for analysis in per_module.values():
        uncovered.update(analysis.stuck_cells)
    all_cells = {
        Point(x, y) for y in range(1, height + 1) for x in range(1, width + 1)
    }
    return FTIReport(
        width=width,
        height=height,
        covered=frozenset(all_cells - uncovered),
        per_module=per_module,
    )


def _orientations(pm, allow_rotation: bool) -> list[tuple[int, int]]:
    w, h = pm.spec.footprint_width, pm.spec.footprint_height
    return [(w, h), (h, w)] if allow_rotation and w != h else [(w, h)]


def _obstacles(placement, pm, width: int, height: int) -> np.ndarray:
    """``(height, width)`` 0/1 matrix of the cells the relocated *pm*
    must avoid: the footprint of every other module whose span overlaps
    its own, clipped to the array."""
    m = np.zeros((height, width), dtype=np.uint8)
    for other in placement:
        if other.op_id == pm.op_id:
            continue
        if not (other.start < pm.stop and pm.start < other.stop):
            continue
        fp = other.footprint
        x1, y1 = max(fp.x, 1), max(fp.y, 1)
        x2, y2 = min(fp.x2, width), min(fp.y2, height)
        if x1 <= x2 and y1 <= y2:
            m[y1 - 1 : y2, x1 - 1 : x2] = 1
    return m


def _analyze_mer(
    placement,
    pm,
    width: int,
    height: int,
    allow_rotation: bool,
) -> ModuleRelocatability:
    """The paper's algorithm: per faulty cell, mark it occupied alongside
    the concurrent modules, enumerate maximal empty rectangles, and test
    whether any accommodates the module."""
    base = _obstacles(placement, pm, width, height)
    w0, h0 = pm.spec.footprint_width, pm.spec.footprint_height

    relocatable, stuck = set(), set()
    feasible_unmarked = _count_feasible(base, pm, width, height, allow_rotation)
    for p in pm.footprint.cells():
        grid = base.copy()
        grid[p.y - 1, p.x - 1] = 1
        mers = find_maximal_empty_rectangles(grid)
        if fits_any_rectangle(mers, w0, h0, allow_rotation):
            relocatable.add(p)
        else:
            stuck.add(p)
    return ModuleRelocatability(
        op_id=pm.op_id,
        feasible_positions=feasible_unmarked,
        relocatable_cells=frozenset(relocatable),
        stuck_cells=frozenset(stuck),
    )


def _analyze_bruteforce(
    placement,
    pm,
    width: int,
    height: int,
    allow_rotation: bool,
) -> ModuleRelocatability:
    """Pure-Python reference: try every position for every faulty cell."""
    grid = _obstacles(placement, pm, width, height)
    positions = list(_iter_feasible(grid, pm, width, height, allow_rotation))

    relocatable, stuck = set(), set()
    for p in pm.footprint.cells():
        if any(not rect.contains_point(p) for rect in positions):
            relocatable.add(p)
        else:
            stuck.add(p)
    return ModuleRelocatability(
        op_id=pm.op_id,
        feasible_positions=len(positions),
        relocatable_cells=frozenset(relocatable),
        stuck_cells=frozenset(stuck),
    )


def _analyze_sat(
    placement,
    pm,
    width: int,
    height: int,
    allow_rotation: bool,
) -> ModuleRelocatability:
    """Summed-area-table position counting.

    For each orientation, mark position (x, y) feasible when the w x h
    window there contains no obstacle. Then a faulty cell f is
    survivable iff some feasible placement's footprint misses f, i.e.
    ``cover_count[f] < total_feasible`` where cover_count accumulates,
    per cell, how many feasible footprints contain it.
    """
    occ = _obstacles(placement, pm, width, height).astype(np.int64)
    # Summed-area table with a zero border: S[r, c] = sum of occ[:r, :c].
    sat = np.zeros((height + 1, width + 1), dtype=np.int64)
    sat[1:, 1:] = occ.cumsum(axis=0).cumsum(axis=1)

    total = 0
    cover = np.zeros((height + 1, width + 1), dtype=np.int64)  # diff array
    for w, h in _orientations(pm, allow_rotation):
        if w > width or h > height:
            continue
        # window[r, c] = occupied cells in rows r..r+h-1, cols c..c+w-1
        window = (
            sat[h:, w:]
            - sat[:-h, w:][: height - h + 1]
            - sat[h:, : width - w + 1]
            + sat[: height - h + 1, : width - w + 1]
        )
        rows, cols = np.nonzero(window == 0)
        total += len(rows)
        # 2-D difference trick: +1 at (r, c), -1 at (r, c+w) and (r+h, c),
        # +1 at (r+h, c+w); cumulative sums later yield per-cell counts.
        np.add.at(cover, (rows, cols), 1)
        np.add.at(cover, (rows, cols + w), -1)
        np.add.at(cover, (rows + h, cols), -1)
        np.add.at(cover, (rows + h, cols + w), 1)
    counts = cover.cumsum(axis=0).cumsum(axis=1)[:height, :width]

    relocatable, stuck = set(), set()
    for p in pm.footprint.cells():
        if total > int(counts[p.y - 1, p.x - 1]):
            relocatable.add(p)
        else:
            stuck.add(p)
    return ModuleRelocatability(
        op_id=pm.op_id,
        feasible_positions=total,
        relocatable_cells=frozenset(relocatable),
        stuck_cells=frozenset(stuck),
    )


def _iter_feasible(m, pm, width, height, allow_rotation):
    """Yield every obstacle-free footprint rectangle for *pm* on the
    0/1 obstacle matrix *m*."""
    for w, h in _orientations(pm, allow_rotation):
        for y in range(1, height - h + 2):
            for x in range(1, width - w + 2):
                if not m[y - 1 : y - 1 + h, x - 1 : x - 1 + w].any():
                    yield Rect(x, y, w, h)


def _count_feasible(grid, pm, width, height, allow_rotation) -> int:
    return sum(1 for _ in _iter_feasible(grid, pm, width, height, allow_rotation))


def fits_any_rectangle(
    rects: list[Rect], width: int, height: int, allow_rotation: bool = True
) -> bool:
    """True if a ``width x height`` footprint fits in any of *rects*
    (with *allow_rotation*, the transposed footprint too).

    This is the paper's relocation test: "check if these [maximal-empty]
    rectangles can accommodate the faulty module".
    """
    return any(
        (r.width >= width and r.height >= height)
        or (allow_rotation and r.width >= height and r.height >= width)
        for r in rects
    )


def brute_force_maximal_empty_rectangles(grid) -> list[Rect]:
    """Quartic-time reference enumeration (for tests and benchmarks).

    Checks every empty rectangle for maximality by attempting to extend
    it one cell in each direction.
    """
    m = _as_matrix(grid)
    height, width = m.shape
    # 2-D prefix sums for O(1) emptiness queries.
    pref = np.zeros((height + 1, width + 1), dtype=np.int64)
    pref[1:, 1:] = np.cumsum(np.cumsum(m, axis=0), axis=1)

    def occupied_count(r1: int, c1: int, r2: int, c2: int) -> int:
        """Occupied cells in rows r1..r2, cols c1..c2 (0-based, inclusive)."""
        if r1 > r2 or c1 > c2:
            return 0
        return int(
            pref[r2 + 1, c2 + 1] - pref[r1, c2 + 1] - pref[r2 + 1, c1] + pref[r1, c1]
        )

    out = []
    for r1 in range(height):
        for r2 in range(r1, height):
            for c1 in range(width):
                for c2 in range(c1, width):
                    if occupied_count(r1, c1, r2, c2) > 0:
                        continue
                    grow_left = c1 > 0 and occupied_count(r1, c1 - 1, r2, c1 - 1) == 0
                    grow_right = (
                        c2 < width - 1 and occupied_count(r1, c2 + 1, r2, c2 + 1) == 0
                    )
                    grow_down = r1 > 0 and occupied_count(r1 - 1, c1, r1 - 1, c2) == 0
                    grow_up = (
                        r2 < height - 1 and occupied_count(r2 + 1, c1, r2 + 1, c2) == 0
                    )
                    if not (grow_left or grow_right or grow_down or grow_up):
                        out.append(
                            Rect(x=c1 + 1, y=r1 + 1, width=c2 - c1 + 1, height=r2 - r1 + 1)
                        )
    return out
