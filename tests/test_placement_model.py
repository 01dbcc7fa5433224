"""Unit tests for PlacedModule and Placement (the modified 2-D model)."""

import pytest

from repro.geometry import Interval, Rect
from repro.modules.library import MIXER_2X2, MIXER_2X4, MIXER_LINEAR_1X4
from repro.placement.model import PlacedModule, Placement
from repro.util.errors import PlacementError


def pm(op, spec=MIXER_2X2, x=1, y=1, start=0.0, stop=10.0, rotated=False):
    return PlacedModule(op_id=op, spec=spec, x=x, y=y, start=start, stop=stop, rotated=rotated)


class TestPlacedModule:
    def test_footprint(self):
        m = pm("a", x=2, y=3)
        assert m.footprint == Rect(2, 3, 4, 4)

    def test_rotated_footprint(self):
        m = pm("a", spec=MIXER_LINEAR_1X4, rotated=True)
        assert (m.footprint.width, m.footprint.height) == (3, 6)

    def test_functional_region_inset(self):
        m = pm("a", x=2, y=3)
        assert m.functional_region == Rect(3, 4, 2, 2)

    def test_interval_and_box(self):
        m = pm("a", start=5, stop=15)
        assert m.interval == Interval(5, 15)
        assert m.box.volume == 160.0

    def test_moved_to(self):
        m = pm("a").moved_to(5, 6)
        assert (m.x, m.y) == (5, 6)
        assert not m.rotated

    def test_moved_to_with_rotation(self):
        m = pm("a", spec=MIXER_2X4).moved_to(1, 1, rotated=True)
        assert m.rotated

    def test_conflicts_space_and_time(self):
        a = pm("a", x=1, y=1, start=0, stop=10)
        b_same_cells_later = pm("b", x=1, y=1, start=10, stop=20)
        c_overlap = pm("c", x=3, y=3, start=5, stop=12)
        assert not a.conflicts(b_same_cells_later)
        assert a.conflicts(c_overlap)

    def test_dims(self):
        m = pm("a", spec=MIXER_LINEAR_1X4)
        assert m.dims == (6, 3)


class TestPlacementContainer:
    def test_add_and_get(self):
        p = Placement(10, 10)
        m = pm("a")
        p.add(m)
        assert p.get("a") is m
        assert "a" in p and len(p) == 1

    def test_duplicate_rejected(self):
        p = Placement(10, 10)
        p.add(pm("a"))
        with pytest.raises(PlacementError):
            p.add(pm("a", x=5, y=5))

    def test_out_of_core_rejected(self):
        p = Placement(5, 5)
        with pytest.raises(PlacementError):
            p.add(pm("a", x=3, y=3))  # 4x4 footprint exceeds 5x5 core

    def test_replace(self):
        p = Placement(10, 10)
        p.add(pm("a"))
        p.replace(pm("a", x=4, y=4))
        assert p.get("a").x == 4

    def test_replace_unknown(self):
        with pytest.raises(PlacementError):
            Placement(10, 10).replace(pm("a"))

    def test_copy_is_shallow_but_safe(self):
        p = Placement(10, 10)
        p.add(pm("a"))
        q = p.copy()
        q.replace(pm("a", x=5, y=5))
        assert p.get("a").x == 1

    def test_get_missing(self):
        with pytest.raises(PlacementError):
            Placement(5, 5).get("nope")


class TestAreaMetrics:
    def test_bounding_box(self):
        p = Placement(20, 20)
        p.add(pm("a", x=2, y=2))             # 4x4 at (2,2) -> x2-5, y2-5
        p.add(pm("b", x=8, y=3, start=20, stop=25))
        bb = p.bounding_box()
        assert bb == Rect(2, 2, 10, 5)

    def test_area_cells_and_mm2(self):
        p = Placement(20, 20)
        p.add(pm("a", x=1, y=1))
        assert p.area_cells == 16
        assert p.area_mm2 == pytest.approx(36.0)  # 16 * 2.25

    def test_empty_has_no_bbox(self):
        with pytest.raises(PlacementError):
            Placement(5, 5).bounding_box()

    def test_normalized_moves_origin(self):
        p = Placement(20, 20)
        p.add(pm("a", x=7, y=9))
        n = p.normalized()
        assert n.get("a").x == 1 and n.get("a").y == 1
        assert n.core_width == 4 and n.core_height == 4

    def test_normalized_preserves_relative_geometry(self):
        p = Placement(20, 20)
        p.add(pm("a", x=5, y=5))
        p.add(pm("b", x=10, y=7, start=20, stop=22))
        n = p.normalized()
        assert n.get("b").x - n.get("a").x == 5
        assert n.get("b").y - n.get("a").y == 2


class TestFeasibility:
    def test_overlap_volume(self):
        p = Placement(20, 20)
        p.add(pm("a", x=1, y=1, start=0, stop=10))
        p.add(pm("b", x=3, y=3, start=5, stop=15))
        # 2x2 cells shared for 5 s.
        assert p.overlap_volume() == 20.0
        assert not p.is_feasible()

    def test_time_disjoint_reuse_is_feasible(self):
        p = Placement(20, 20)
        p.add(pm("a", x=1, y=1, start=0, stop=10))
        p.add(pm("b", x=1, y=1, start=10, stop=20))
        assert p.is_feasible()
        p.validate()

    def test_conflicting_pairs(self):
        p = Placement(20, 20)
        p.add(pm("a", x=1, y=1))
        p.add(pm("b", x=2, y=2))
        pairs = p.conflicting_pairs()
        assert len(pairs) == 1
        assert {pairs[0][0].op_id, pairs[0][1].op_id} == {"a", "b"}

    def test_validate_raises_with_detail(self):
        p = Placement(20, 20)
        p.add(pm("a", x=1, y=1))
        p.add(pm("b", x=2, y=2))
        with pytest.raises(PlacementError, match="overlaps"):
            p.validate()



class TestTemporalViews:
    def build(self) -> Placement:
        p = Placement(20, 20)
        p.add(pm("a", x=1, y=1, start=0, stop=10))
        p.add(pm("b", x=6, y=1, start=5, stop=15))
        p.add(pm("c", x=1, y=1, start=10, stop=20))
        return p

    def test_time_planes(self):
        assert self.build().time_planes() == [0, 5, 10]

    def test_event_times(self):
        assert self.build().event_times() == [0, 5, 10, 15, 20]

    def test_active_at(self):
        p = self.build()
        assert {m.op_id for m in p.active_at(7)} == {"a", "b"}
        assert {m.op_id for m in p.active_at(10)} == {"b", "c"}

    def test_overlapping_span_with_exclude(self):
        p = self.build()
        mods = p.overlapping_span(Interval(0, 10), exclude="a")
        assert {m.op_id for m in mods} == {"b"}

    def test_makespan(self):
        assert self.build().makespan() == 20
