"""Unit tests for Interval and Box (the 3-D packing primitives)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.geometry import Box, Interval, Rect

intervals = st.builds(
    lambda s, d: Interval(s, s + d),
    s=st.floats(0, 50, allow_nan=False),
    d=st.floats(0.5, 20, allow_nan=False),
)


class TestInterval:
    def test_duration(self):
        assert Interval(3.0, 8.0).duration == 5.0

    def test_empty_interval_rejected(self):
        with pytest.raises(ValueError):
            Interval(5.0, 5.0)
        with pytest.raises(ValueError):
            Interval(5.0, 2.0)

    def test_half_open_no_overlap_at_boundary(self):
        # The paper's module reuse: [0,10) and [10,15) share cells legally.
        assert not Interval(0, 10).overlaps(Interval(10, 15))

    def test_overlap_basic(self):
        assert Interval(0, 10).overlaps(Interval(5, 12))
        assert Interval(5, 12).overlaps(Interval(0, 10))

    def test_containment_overlaps(self):
        assert Interval(0, 20).overlaps(Interval(5, 6))

    def test_overlap_duration(self):
        assert Interval(0, 10).overlap_duration(Interval(5, 12)) == 5.0
        assert Interval(0, 10).overlap_duration(Interval(10, 12)) == 0.0

    def test_contains_time_half_open(self):
        iv = Interval(5, 10)
        assert iv.contains_time(5)
        assert iv.contains_time(9.999)
        assert not iv.contains_time(10)
        assert not iv.contains_time(4.999)

    def test_str(self):
        assert str(Interval(0, 10)) == "[0, 10)"

    @given(intervals, intervals)
    def test_overlap_symmetric(self, a, b):
        assert a.overlaps(b) == b.overlaps(a)

    @given(intervals, intervals)
    def test_overlap_duration_positive_iff_overlaps(self, a, b):
        assert (a.overlap_duration(b) > 0) == a.overlaps(b)

    @given(intervals)
    def test_self_overlap_duration_is_duration(self, iv):
        assert iv.overlap_duration(iv) == pytest.approx(iv.duration)


class TestBox:
    def test_volume(self):
        box = Box(Rect(1, 1, 4, 4), Interval(0, 10))
        assert box.volume == 160.0

    def test_conflict_requires_space_and_time(self):
        a = Box(Rect(1, 1, 4, 4), Interval(0, 10))
        same_place_later = Box(Rect(1, 1, 4, 4), Interval(10, 15))
        same_time_elsewhere = Box(Rect(10, 10, 2, 2), Interval(0, 10))
        overlapping = Box(Rect(3, 3, 4, 4), Interval(5, 12))
        assert not a.conflicts(same_place_later)
        assert not a.conflicts(same_time_elsewhere)
        assert a.conflicts(overlapping)

    def test_conflict_volume(self):
        a = Box(Rect(1, 1, 4, 4), Interval(0, 10))
        b = Box(Rect(3, 3, 4, 4), Interval(5, 12))
        # 2x2 cells shared for 5 seconds.
        assert a.conflict_volume(b) == 20.0

    def test_conflict_volume_zero_when_time_disjoint(self):
        a = Box(Rect(1, 1, 4, 4), Interval(0, 10))
        b = Box(Rect(1, 1, 4, 4), Interval(10, 20))
        assert a.conflict_volume(b) == 0.0

    def test_footprint_at(self):
        box = Box(Rect(2, 2, 3, 3), Interval(5, 9))
        assert box.footprint_at(6) == Rect(2, 2, 3, 3)
        assert box.footprint_at(9) is None
        assert box.footprint_at(0) is None

    def test_conflict_volume_symmetric(self):
        a = Box(Rect(1, 1, 4, 6), Interval(0, 7))
        b = Box(Rect(2, 4, 5, 5), Interval(3, 12))
        assert a.conflict_volume(b) == b.conflict_volume(a)
