"""Tests for the maximal-empty-rectangle oracle.

The staircase sweep is property-tested against the quartic brute-force
enumeration on random 0/1 matrices — the guarantee behind the paper's
Section 5.3 procedure, which the FTI and relocation oracles run. The
oracle's MER relocation test (``fits_any_rectangle``) is checked here
too.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    brute_force_maximal_empty_rectangles,
    find_maximal_empty_rectangles,
    fits_any_rectangle,
)

from repro.geometry import Point, Rect


def grid_from_strings(rows: list[str]) -> np.ndarray:
    """Build a 0/1 matrix from art: '#' occupied, '.' free; first row =
    top, while the matrix's first row is the bottom one (y = 1)."""
    cells = [[ch == "#" for ch in row] for row in reversed(rows)]
    return np.array(cells, dtype=np.uint8)


def occupied(m: np.ndarray, p: Point | tuple[int, int]) -> bool:
    """True if cell *p* (paper coordinates) of matrix *m* is occupied."""
    x, y = p
    return bool(m[y - 1, x - 1])


class TestKnownConfigurations:
    def test_empty_grid_single_mer(self):
        g = np.zeros((4, 5), dtype=np.uint8)
        assert find_maximal_empty_rectangles(g) == [Rect(1, 1, 5, 4)]

    def test_full_grid_no_mers(self):
        g = np.ones((3, 3), dtype=np.uint8)
        assert find_maximal_empty_rectangles(g) == []

    def test_single_obstacle_center(self):
        g = grid_from_strings([
            "...",
            ".#.",
            "...",
        ])
        mers = set(find_maximal_empty_rectangles(g))
        assert mers == {
            Rect(1, 1, 3, 1),   # bottom band
            Rect(1, 3, 3, 1),   # top band
            Rect(1, 1, 1, 3),   # left band
            Rect(3, 1, 1, 3),   # right band
        }

    def test_l_shaped_free_space(self):
        g = grid_from_strings([
            "##.",
            "##.",
            "...",
        ])
        mers = set(find_maximal_empty_rectangles(g))
        assert mers == {Rect(1, 1, 3, 1), Rect(3, 1, 1, 3)}

    def test_one_row_grid(self):
        g = grid_from_strings(["..#."])
        mers = set(find_maximal_empty_rectangles(g))
        assert mers == {Rect(1, 1, 2, 1), Rect(4, 1, 1, 1)}

    def test_one_column_grid(self):
        g = grid_from_strings([".", "#", "."])
        mers = set(find_maximal_empty_rectangles(g))
        assert mers == {Rect(1, 1, 1, 1), Rect(1, 3, 1, 1)}

    def test_diagonal_obstacles(self):
        g = grid_from_strings([
            "#..",
            ".#.",
            "..#",
        ])
        mers = set(find_maximal_empty_rectangles(g))
        brute = set(brute_force_maximal_empty_rectangles(g))
        assert mers == brute
        assert Rect(2, 3, 2, 1) in mers

    def test_accepts_raw_matrix(self):
        m = [[0, 0, 0], [0, 0, 0]]
        assert find_maximal_empty_rectangles(m) == [Rect(1, 1, 3, 2)]

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            find_maximal_empty_rectangles(np.zeros(4))


def _rect_free(grid: np.ndarray, r: Rect) -> bool:
    """Every cell of *r* lies inside *grid* and is free."""
    height, width = grid.shape
    inside = r.x >= 1 and r.y >= 1 and r.x2 <= width and r.y2 <= height
    return inside and not any(occupied(grid, p) for p in r.cells())


class TestMERInvariants:
    @staticmethod
    def assert_valid_mers(grid: np.ndarray, mers: list[Rect]):
        # 1. every MER is empty
        for r in mers:
            assert _rect_free(grid, r), f"{r} is not empty"
        # 2. maximality: no MER extends in any direction
        for r in mers:
            for grown in (
                Rect(r.x - 1, r.y, r.width + 1, r.height) if r.x > 1 else None,
                Rect(r.x, r.y - 1, r.width, r.height + 1) if r.y > 1 else None,
                Rect(r.x, r.y, r.width + 1, r.height),
                Rect(r.x, r.y, r.width, r.height + 1),
            ):
                if grown is not None:
                    assert not _rect_free(grid, grown), f"{r} extends to {grown}"
        # 3. no duplicates
        assert len(mers) == len(set(mers))

    @given(
        st.integers(1, 7),
        st.integers(1, 7),
        st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), max_size=12),
    )
    @settings(max_examples=120, deadline=None)
    def test_fast_matches_bruteforce(self, width, height, obstacles):
        g = np.zeros((height, width), dtype=np.uint8)
        for x, y in obstacles:
            if x < width and y < height:
                g[y, x] = 1
        fast = set(find_maximal_empty_rectangles(g))
        brute = set(brute_force_maximal_empty_rectangles(g))
        assert fast == brute
        self.assert_valid_mers(g, list(fast))

    @given(st.integers(1, 6), st.integers(1, 6))
    @settings(max_examples=30, deadline=None)
    def test_every_free_cell_in_some_mer(self, width, height):
        g = np.zeros((height, width), dtype=np.uint8)
        g[0, 0] = 1
        mers = find_maximal_empty_rectangles(g)
        free = {
            Point(x, y)
            for x in range(1, width + 1)
            for y in range(1, height + 1)
            if not occupied(g, (x, y))
        }
        covered = set()
        for r in mers:
            covered.update(r.cells())
        assert covered == free


class TestFitsAnyRectangle:
    def test_fits_either_orientation(self):
        rects = [Rect(1, 1, 3, 6)]
        assert fits_any_rectangle(rects, 6, 3, allow_rotation=True)
        assert not fits_any_rectangle(rects, 6, 3, allow_rotation=False)

    def test_empty_list(self):
        assert not fits_any_rectangle([], 1, 1)

    def test_exact_fit(self):
        assert fits_any_rectangle([Rect(2, 2, 4, 4)], 4, 4)
