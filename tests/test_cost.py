"""Tests for the placement cost metrics."""

import pytest

from repro.fault.fti import compute_fti
from repro.modules.library import MIXER_2X2
from repro.placement.cost import AreaCost, FaultAwareCost
from repro.placement.model import PlacedModule, Placement


def pm(op, x=1, y=1, start=0.0, stop=10.0):
    return PlacedModule(op_id=op, spec=MIXER_2X2, x=x, y=y, start=start, stop=stop)


def feasible_placement() -> Placement:
    # Time-disjoint neighbors: 8x4 bounding array, FTI 1.0 (each module
    # can relocate into the other's idle span).
    p = Placement(12, 12)
    p.add(pm("a", x=1, y=1, start=0, stop=10))
    p.add(pm("b", x=5, y=1, start=10, stop=20))
    return p


def fragile_placement() -> Placement:
    # Same 8x4 bounding array but concurrent modules: nothing can move,
    # FTI 0.0.
    p = Placement(12, 12)
    p.add(pm("a", x=1, y=1, start=0, stop=10))
    p.add(pm("b", x=5, y=1, start=0, stop=10))
    return p


def overlapping_placement() -> Placement:
    p = Placement(12, 12)
    p.add(pm("a", x=1, y=1))
    p.add(pm("b", x=2, y=2))
    return p


class TestAreaCost:
    def test_feasible_cost_is_area_plus_pull(self):
        cost = AreaCost(pull_weight=0.0)
        p = feasible_placement()
        assert cost(p) == pytest.approx(p.area_mm2)

    def test_overlap_penalized(self):
        cost = AreaCost(pull_weight=0.0)
        assert cost(overlapping_placement()) > cost(feasible_placement())

    def test_overlap_weight_scales_penalty(self):
        p = overlapping_placement()
        light = AreaCost(overlap_weight=1.0, pull_weight=0.0)(p)
        heavy = AreaCost(overlap_weight=100.0, pull_weight=0.0)(p)
        assert heavy > light

    def test_pull_term_prefers_corner(self):
        cost = AreaCost()
        near = Placement(12, 12)
        near.add(pm("a", x=1, y=1))
        far = Placement(12, 12)
        far.add(pm("a", x=9, y=9))
        assert cost(near) < cost(far)

    def test_pull_term_is_a_tiebreaker_not_an_objective(self):
        # The pull term for one module never outweighs a single cell.
        cost = AreaCost()
        small = Placement(12, 12)
        small.add(pm("a", x=9, y=9))  # max pull, min area
        # One extra column of bounding box (4 cells here) dominates.
        assert cost.pull_weight * (12 + 12) < 2.25

    def test_validation(self):
        with pytest.raises(ValueError):
            AreaCost(overlap_weight=0.0)
        with pytest.raises(ValueError):
            AreaCost(pull_weight=-1.0)

    def test_area_term(self):
        p = feasible_placement()
        assert AreaCost(alpha=2.0).area_term(p) == pytest.approx(2.0 * p.area_mm2)


class TestFaultAwareCost:
    def test_fti_bonus_lowers_cost(self):
        p = feasible_placement()
        oblivious = FaultAwareCost(beta=0.0)
        aware = FaultAwareCost(beta=30.0)
        assert aware(p) < oblivious(p)

    def test_bonus_matches_fti(self):
        p = feasible_placement()
        beta, gamma = 30.0, 2.0
        cost = FaultAwareCost(beta=beta, ft_gamma=gamma, pull_weight=0.0)
        fti = compute_fti(p).fti
        assert cost(p) == pytest.approx(p.area_mm2 - beta * gamma * fti)

    def test_overlapping_placement_gets_no_bonus(self):
        p = overlapping_placement()
        aware = FaultAwareCost(beta=1000.0, pull_weight=0.0)
        base = AreaCost(pull_weight=0.0)
        assert aware(p) == pytest.approx(base(p))

    def test_higher_fti_wins_at_equal_area(self):
        # Equal 8x4 bounding arrays, same module coordinates — only the
        # time structure differs, so areas and pull terms match exactly
        # and the cost must order by FTI alone.
        tolerant = feasible_placement()   # FTI 1.0
        fragile = fragile_placement()     # FTI 0.0
        assert tolerant.area_cells == fragile.area_cells
        assert compute_fti(tolerant).fti > compute_fti(fragile).fti
        cost = FaultAwareCost(beta=60.0)
        assert cost(tolerant) < cost(fragile)

    def test_beta_validation(self):
        with pytest.raises(ValueError):
            FaultAwareCost(beta=-1.0)

    def test_fti_report_accessor(self):
        p = feasible_placement()
        report = FaultAwareCost(beta=10).fti_report(p)
        assert 0 <= report.fti <= 1
