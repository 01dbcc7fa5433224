"""Tests for the partial reconfiguration engine."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import reference_find_target

from repro.fault.fti import compute_fti
from repro.fault.reconfigure import PartialReconfigurer, Relocation
from repro.geometry import Point
from repro.modules.kinds import ModuleKind
from repro.modules.library import MIXER_2X2, MIXER_LINEAR_1X4, STORAGE_1X1
from repro.modules.module import ModuleSpec
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

    def test_every_module_that_ever_touches_the_cell(self):
        p = Placement(10, 10)
        p.add(pm("a", x=1, y=1, start=0, stop=10))
        p.add(pm("b", x=1, y=1, start=10, stop=20))
        r = PartialReconfigurer()
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
            _, plan = PartialReconfigurer().apply(p, fault)
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


def detector(w: int, h: int) -> ModuleSpec:
    """A ``w x h`` footprint (w, h >= 3): a ``(w-2) x (h-2)`` functional
    region in its one-cell segregation ring."""
    return ModuleSpec(f"det-{w}x{h}", ModuleKind.DETECTOR, w - 2, h - 2, 5.0)


specs = st.one_of(
    st.sampled_from([MIXER_2X2, MIXER_LINEAR_1X4, STORAGE_1X1]),
    st.builds(detector, st.integers(3, 8), st.integers(3, 8)),
)
# Arrays as thin as the thinnest footprint, three cells.
arrays = st.one_of(
    st.tuples(st.just(3), st.integers(1, 40)),
    st.tuples(st.integers(1, 40), st.just(3)),
    st.tuples(st.integers(1, 40), st.integers(1, 40)),
)


def slotted(op, spec, x, y, slot, rotated):
    """Spans of length 10 starting every 5 s: slots 0 and 1 overlap, and
    slot 2 starts as slot 0 stops, slot 3 as slot 1 stops."""
    return PlacedModule(
        op_id=op, spec=spec, x=x, y=y, start=5.0 * slot, stop=5.0 * slot + 10.0,
        rotated=rotated,
    )


@st.composite
def relocation_queries(draw):
    """A placement, a module to relocate and its faulty cells.

    Obstacles may hang up to two cells off the core: the placement is
    filled past ``Placement.add``'s in-core check, so both searches must
    clip footprints rather than wrap them into the next row. The module
    may sit anywhere near the core (its old origin only sets distances)
    and may itself be in the placement; faults fall inside and outside
    the core.
    """
    width, height = draw(arrays)
    near_x, near_y = st.integers(-1, width + 2), st.integers(-1, height + 2)
    pm = slotted(
        "m", draw(specs), draw(near_x), draw(near_y),
        draw(st.integers(0, 1)), draw(st.booleans()),
    )
    modules = {"m": pm} if draw(st.booleans()) else {}
    for i in range(draw(st.integers(0, 12))):
        modules[f"o{i}"] = slotted(
            f"o{i}", draw(specs), draw(near_x), draw(near_y),
            draw(st.integers(0, 3)), draw(st.booleans()),
        )
    placement = Placement(width, height)
    placement._modules.update(modules)
    faults = draw(st.lists(st.builds(Point, near_x, near_y), min_size=1, max_size=4))
    return placement, pm, faults


def relocated(find, placement, pm, faults):
    """The relocated module, or the error text when there is no site."""
    try:
        return find(placement, pm, faults)
    except ReconfigurationError as exc:
        return str(exc)


class TestFindTargetParity:
    """The bitboard search against the paper's MER-then-expand oracle."""

    @given(query=relocation_queries())
    @settings(max_examples=300, deadline=None)
    def test_matches_mer_reference(self, query):
        placement, pm, faults = query
        assert relocated(PartialReconfigurer().find_target, placement, pm, faults) == (
            relocated(reference_find_target, placement, pm, faults)
        )

    def test_no_site_error_text(self):
        p = Placement(4, 4)
        p.add(pm("a", x=1, y=1))
        fault = [Point(2, 2)]
        message = (
            "no fault-free site for module a (4x4) on 4x4 array avoiding "
            "[Point(x=2, y=2)]"
        )
        with pytest.raises(ReconfigurationError) as got:
            PartialReconfigurer().find_target(p, p.get("a"), fault)
        assert str(got.value) == message
        assert relocated(reference_find_target, p, p.get("a"), fault) == message

    def test_off_core_fault_blocks_nothing(self):
        # Cell (12, 3) is off a 9-wide core; unclipped, its bit would be
        # the next row's second cell, (2, 4), the origin of the site that
        # wins here (with (2, 4) dead, (6, 4) would).
        p = Placement(9, 9)
        p.add(PlacedModule("o", detector(3, 3), x=4, y=1, start=0.0, stop=10.0))
        p.add(PlacedModule("a", detector(3, 3), x=4, y=4, start=0.0, stop=10.0))
        for find in (PartialReconfigurer().find_target, reference_find_target):
            new = find(p, p.get("a"), [Point(5, 5), Point(12, 3)])
            assert (new.x, new.y) == (2, 4)

    def test_native_orientation_wins_a_distance_tie(self):
        # A vertical 3x5 on a 5x5 array, faulty at its foot: the native
        # site (2, 1) and the rotated site (1, 2) are both one step away.
        p = Placement(5, 5)
        p.add(PlacedModule("a", detector(3, 5), x=1, y=1, start=0.0, stop=10.0))
        for find in (PartialReconfigurer().find_target, reference_find_target):
            new = find(p, p.get("a"), [Point(1, 1)])
            assert (new.x, new.y, new.rotated) == (2, 1, False)

    def test_rotation_wins_when_nearer(self):
        # Faulty in its upper half: every native site needs another
        # column, while the rotated module keeps the old origin.
        p = Placement(5, 5)
        p.add(PlacedModule("a", detector(3, 5), x=1, y=1, start=0.0, stop=10.0))
        for find in (PartialReconfigurer().find_target, reference_find_target):
            new = find(p, p.get("a"), [Point(2, 4)])
            assert (new.x, new.y, new.rotated) == (1, 1, True)
