"""Unit tests for the 0/1 occupancy grid."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from oracles import occupied

from repro.geometry import Point, Rect
from repro.grid.occupancy import OccupancyGrid


class TestConstruction:
    def test_starts_empty(self):
        g = OccupancyGrid(4, 3)
        assert g.occupied_count == 0

    def test_from_rects(self):
        g = OccupancyGrid.from_rects(5, 5, [Rect(1, 1, 2, 2), Rect(4, 4, 2, 2)])
        assert g.occupied_count == 8

    def test_from_matrix_copies(self):
        m = np.zeros((3, 4), dtype=np.uint8)
        g = OccupancyGrid.from_matrix(m)
        m[0, 0] = 1
        assert not occupied(g, (1, 1))

    def test_from_matrix_shape_check(self):
        with pytest.raises(ValueError):
            OccupancyGrid.from_matrix(np.zeros(5))

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            OccupancyGrid(0, 3)

    def test_copy_is_independent(self):
        g = OccupancyGrid(3, 3)
        h = g.copy()
        h.set((1, 1))
        assert not occupied(g, (1, 1))


class TestFillAndQuery:
    def test_fill_marks_cells(self):
        g = OccupancyGrid(5, 5)
        g.fill(Rect(2, 2, 2, 3))
        assert occupied(g, (2, 2))
        assert occupied(g, (3, 4))
        assert not occupied(g, (4, 4))

    def test_fill_clips_to_grid(self):
        g = OccupancyGrid(3, 3)
        g.fill(Rect(3, 3, 5, 5))  # mostly outside
        assert g.occupied_count == 1

    def test_fill_fully_outside_is_noop(self):
        g = OccupancyGrid(3, 3)
        g.fill(Rect(10, 10, 2, 2))
        assert g.occupied_count == 0

    def test_fill_value_zero_clears(self):
        g = OccupancyGrid(3, 3)
        g.fill(Rect(1, 1, 3, 3))
        g.fill(Rect(2, 2, 1, 1), value=0)
        assert g.occupied_count == 8
        assert not occupied(g, (2, 2))

    def test_set_and_bounds_check(self):
        g = OccupancyGrid(3, 3)
        g.set((2, 3))
        assert occupied(g, (2, 3))
        with pytest.raises(KeyError):
            g.set((4, 1))

    def test_matrix_orientation_row0_is_bottom(self):
        g = OccupancyGrid(3, 2)
        g.set((1, 1))
        m = g.matrix_view()
        assert m[0, 0] == 1
        assert m[1, 0] == 0

    def test_str_rendering(self):
        g = OccupancyGrid(3, 2)
        g.set((1, 2))
        # Top row printed first.
        assert str(g) == "#..\n..."


class TestOccupancyMatrixHelper:
    @given(
        st.lists(
            st.builds(
                Rect,
                x=st.integers(1, 6),
                y=st.integers(1, 6),
                width=st.integers(1, 4),
                height=st.integers(1, 4),
            ),
            max_size=5,
        )
    )
    def test_counts_match_union_of_cells(self, rects):
        g = OccupancyGrid.from_rects(8, 8, rects)
        expected = set()
        for r in rects:
            expected.update(
                p for p in r.cells() if 1 <= p.x <= 8 and 1 <= p.y <= 8
            )
        assert g.occupied_count == len(expected)
