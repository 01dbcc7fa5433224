"""Unit tests for Rect and Point (repro.geometry.rect)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.geometry import Point, Rect

rects = st.builds(
    Rect,
    x=st.integers(-5, 10),
    y=st.integers(-5, 10),
    width=st.integers(1, 8),
    height=st.integers(1, 8),
)


class TestPoint:
    def test_fields(self):
        p = Point(3, 4)
        assert p.x == 3 and p.y == 4

    def test_is_tuple(self):
        x, y = Point(3, 4)
        assert (x, y) == (3, 4)

    def test_translated(self):
        assert Point(3, 4).translated(-1, 2) == Point(2, 6)

    def test_manhattan_distance(self):
        assert Point(1, 1).manhattan_distance(Point(4, 5)) == 7

    def test_manhattan_distance_symmetric(self):
        a, b = Point(2, 9), Point(7, 1)
        assert a.manhattan_distance(b) == b.manhattan_distance(a)

    def test_neighbors4(self):
        assert set(Point(2, 2).neighbors4()) == {
            Point(1, 2), Point(3, 2), Point(2, 1), Point(2, 3)
        }


class TestRectBasics:
    def test_extent_properties(self):
        r = Rect(2, 3, 4, 5)
        assert (r.x2, r.y2) == (5, 7)
        assert r.area == 20

    def test_invalid_dimensions_rejected(self):
        with pytest.raises(ValueError):
            Rect(1, 1, 0, 3)
        with pytest.raises(ValueError):
            Rect(1, 1, 3, -1)

    def test_unit_rect(self):
        r = Rect(5, 5, 1, 1)
        assert r.area == 1
        assert list(r.cells()) == [Point(5, 5)]

    def test_center_of_even_rect_rounds_down(self):
        assert Rect(1, 1, 4, 4).center == Point(2, 2)

    def test_center_of_odd_rect_is_exact(self):
        assert Rect(1, 1, 3, 3).center == Point(2, 2)

    def test_str(self):
        assert str(Rect(2, 3, 4, 5)) == "4x5@(2,3)"


class TestRectPredicates:
    def test_contains_point_inclusive_bounds(self):
        r = Rect(2, 2, 3, 3)
        assert r.contains_point(Point(2, 2))
        assert r.contains_point(Point(4, 4))
        assert not r.contains_point(Point(5, 4))
        assert not r.contains_point(Point(1, 2))

    def test_contains_point_accepts_tuples(self):
        assert Rect(1, 1, 2, 2).contains_point((2, 2))

    def test_intersects_shared_edge_cells(self):
        # Closed-cell semantics: touching *cells* means intersecting.
        assert Rect(1, 1, 2, 2).intersects(Rect(2, 2, 2, 2))

    def test_disjoint_rects(self):
        assert not Rect(1, 1, 2, 2).intersects(Rect(3, 1, 2, 2))
        assert not Rect(1, 1, 2, 2).intersects(Rect(1, 3, 2, 2))

class TestRectCombinators:
    def test_intersection_basic(self):
        inter = Rect(1, 1, 4, 4).intersection(Rect(3, 3, 4, 4))
        assert inter == Rect(3, 3, 2, 2)

    def test_intersection_disjoint_is_none(self):
        assert Rect(1, 1, 2, 2).intersection(Rect(10, 10, 2, 2)) is None

    def test_overlap_area(self):
        assert Rect(1, 1, 4, 4).overlap_area(Rect(3, 3, 4, 4)) == 4
        assert Rect(1, 1, 2, 2).overlap_area(Rect(5, 5, 2, 2)) == 0

    def test_translated(self):
        assert Rect(2, 3, 4, 5).translated(1, -2) == Rect(3, 1, 4, 5)

    def test_moved_to(self):
        assert Rect(2, 3, 4, 5).moved_to(1, 1) == Rect(1, 1, 4, 5)

    def test_rotated_swaps_dims(self):
        assert Rect(2, 3, 4, 5).rotated() == Rect(2, 3, 5, 4)

    def test_inset_is_segregation_inverse(self):
        fp = Rect(3, 3, 4, 6)
        assert fp.inset(1).expanded(1) == fp

    def test_inset_too_much_rejected(self):
        with pytest.raises(ValueError):
            Rect(1, 1, 2, 5).inset(1)

    def test_expanded(self):
        assert Rect(3, 3, 2, 2).expanded(1) == Rect(2, 2, 4, 4)


class TestRectIteration:
    def test_cells_count_equals_area(self):
        r = Rect(2, 3, 3, 4)
        assert len(list(r.cells())) == r.area

    def test_cells_all_contained(self):
        r = Rect(2, 3, 3, 4)
        assert all(r.contains_point(p) for p in r.cells())

class TestRectProperties:
    @given(rects, rects)
    def test_intersects_iff_intersection_exists(self, a, b):
        assert a.intersects(b) == (a.intersection(b) is not None)

    @given(rects, rects)
    def test_overlap_area_symmetric(self, a, b):
        assert a.overlap_area(b) == b.overlap_area(a)

    @given(rects, rects)
    def test_intersection_contained_in_both(self, a, b):
        inter = a.intersection(b)
        if inter is not None:
            assert set(inter.cells()) <= set(a.cells()) & set(b.cells())

    @given(rects)
    def test_overlap_with_self_is_area(self, r):
        assert r.overlap_area(r) == r.area

    @given(rects, rects)
    def test_overlap_matches_cell_count(self, a, b):
        expected = len(set(a.cells()) & set(b.cells()))
        assert a.overlap_area(b) == expected

    @given(rects)
    def test_rotation_preserves_area(self, r):
        assert r.rotated().area == r.area
