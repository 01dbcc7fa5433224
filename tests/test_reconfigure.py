"""Tests for the partial reconfiguration engine."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fault.fti import compute_fti
from repro.fault.reconfigure import PartialReconfigurer, Relocation
from repro.geometry import Point
from repro.modules.library import MIXER_2X2, MIXER_LINEAR_1X4
from repro.placement.model import PlacedModule, Placement
from repro.util.errors import ReconfigurationError


def pm(op, spec=MIXER_2X2, x=1, y=1, start=0.0, stop=10.0, rotated=False):
    return PlacedModule(op_id=op, spec=spec, x=x, y=y, start=start, stop=stop, rotated=rotated)


class TestAffectedModules:
    def test_finds_containing_module(self):
        p = Placement(10, 10)
        p.add(pm("a", x=1, y=1))
        r = PartialReconfigurer()
        assert [m.op_id for m in r.affected_modules(p, [Point(2, 2)])] == ["a"]
        assert r.affected_modules(p, [Point(9, 9)]) == []

    def test_at_time_filters(self):
        p = Placement(10, 10)
        p.add(pm("a", x=1, y=1, start=0, stop=10))
        p.add(pm("b", x=1, y=1, start=10, stop=20))
        r = PartialReconfigurer()
        assert [m.op_id for m in r.affected_modules(p, [Point(1, 1)], at_time=5)] == ["a"]
        both = r.affected_modules(p, [Point(1, 1)])
        assert {m.op_id for m in both} == {"a", "b"}


class TestRelocation:
    def test_apply_moves_module_off_fault(self):
        p = Placement(8, 8)
        p.add(pm("a", x=1, y=1))
        fault = Point(2, 2)
        updated, plan = PartialReconfigurer().apply(p, fault)
        assert plan.moved_ops == ("a",)
        assert not updated.get("a").footprint.contains_point(fault)
        updated.validate()

    def test_unaffected_modules_untouched(self):
        p = Placement(14, 8)
        p.add(pm("a", x=1, y=1, start=0, stop=10))
        p.add(pm("b", x=6, y=1, start=5, stop=12))
        updated, plan = PartialReconfigurer().apply(p, Point(2, 2))
        assert updated.get("b") == p.get("b")
        assert "b" in plan.untouched

    def test_new_site_avoids_concurrent_modules(self):
        p = Placement(14, 8)
        p.add(pm("a", x=1, y=1, start=0, stop=10))
        p.add(pm("b", x=6, y=1, start=5, stop=12))
        updated, _ = PartialReconfigurer().apply(p, Point(2, 2))
        assert not updated.get("a").footprint.intersects(updated.get("b").footprint)

    def test_impossible_relocation_raises(self):
        p = Placement(4, 4)
        p.add(pm("a", x=1, y=1))  # fills the core
        with pytest.raises(ReconfigurationError):
            PartialReconfigurer().apply(p, Point(2, 2))

    def test_fault_on_unused_cell_is_noop(self):
        p = Placement(10, 10)
        p.add(pm("a", x=1, y=1))
        updated, plan = PartialReconfigurer().apply(p, Point(10, 10))
        assert plan.relocations == ()
        assert updated.get("a") == p.get("a")

    def test_nearest_strategy_minimizes_distance(self):
        """The chosen site is as close as the closest site an exhaustive
        scan of every origin and orientation finds."""
        p = Placement(14, 9)
        p.add(pm("a", spec=MIXER_LINEAR_1X4, x=4, y=3))  # 6x3 footprint
        p.add(pm("b", x=11, y=5, start=5.0, stop=15.0))  # concurrent
        p.add(pm("c", x=1, y=6, start=10.0, stop=20.0))  # not concurrent
        a = p.get("a")
        for fault in (Point(4, 3), Point(6, 4), Point(9, 5)):
            sites = [
                a.moved_to(x, y, rotated=rotated)
                for rotated in (False, True)
                for x in range(1, p.core_width + 1)
                for y in range(1, p.core_height + 1)
            ]
            feasible = [
                site for site in sites
                if site.footprint.x2 <= p.core_width
                and site.footprint.y2 <= p.core_height
                and not site.footprint.contains_point(fault)
                and not any(site.conflicts(o) for o in p if o.op_id != "a")
            ]
            nearest = min(
                Relocation("a", a, site).distance for site in feasible
            )
            _, plan = PartialReconfigurer().apply(p, fault, at_time=6.0)
            assert plan.moved_ops == ("a",)
            assert plan.total_migration_distance == nearest

    def test_extra_faults_avoided(self):
        p = Placement(12, 4)
        p.add(pm("a", x=1, y=1))
        extra = Point(6, 2)
        updated, _ = PartialReconfigurer().apply(p, Point(1, 1), extra_faults=[extra])
        assert not updated.get("a").footprint.contains_point(extra)

    def test_only_ops_filter(self):
        p = Placement(10, 10)
        p.add(pm("a", x=1, y=1, start=0, stop=10))
        p.add(pm("b", x=1, y=1, start=10, stop=20))
        _, plan = PartialReconfigurer().apply(p, Point(1, 1), only_ops=["b"])
        assert plan.moved_ops == ("b",)

    def test_rotation_disabled(self):
        p = Placement(9, 3)
        p.add(pm("a", spec=MIXER_LINEAR_1X4, x=1, y=1))  # 6x3 footprint
        # Space to the right is 3x3 only; without rotation, shifting
        # right reusing own cells still works (window always 6 wide).
        updated, plan = PartialReconfigurer(allow_rotation=False).apply(p, Point(1, 1))
        assert not updated.get("a").rotated

    def test_relocation_distance_property(self):
        old = pm("a", x=1, y=1)
        new = pm("a", x=4, y=3)
        assert Relocation("a", old, new).distance == 5

    def test_multi_module_fault_both_relocated(self):
        p = Placement(10, 10)
        p.add(pm("a", x=1, y=1, start=0, stop=10))
        p.add(pm("b", x=1, y=1, start=10, stop=20))
        updated, plan = PartialReconfigurer().apply(p, Point(2, 2))
        assert set(plan.moved_ops) == {"a", "b"}
        for op in ("a", "b"):
            assert not updated.get(op).footprint.contains_point(Point(2, 2))
        updated.validate()


class TestAgreementWithFTI:
    """Reconfiguration success on cell f must equal f's C-coveredness."""

    @given(x=st.integers(1, 9), y=st.integers(1, 7))
    @settings(max_examples=40, deadline=None)
    def test_covered_iff_reconfigurable(self, x, y, sa_result):
        placement = sa_result.placement
        w, h = placement.array_dims()
        if x > w or y > h:
            return
        report = compute_fti(placement)
        reconfigurer = PartialReconfigurer()
        try:
            reconfigurer.apply(placement, Point(x, y))
            survived = True
        except ReconfigurationError:
            survived = False
        assert survived == report.is_covered((x, y))
