"""Tests for the on-line testing substrate (refs [13]/[14])."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import Point
from repro.modules.library import MIXER_2X2
from repro.placement.model import PlacedModule, Placement
from repro.testing.detector import (
    DRY_CAPACITANCE_PF,
    WET_CAPACITANCE_PF,
    CapacitiveSensor,
)
from repro.testing.localize import FaultLocalizer
from repro.testing.online import OnlineTester
from repro.testing.test_droplet import TestDroplet, free_cell_paths, snake_path


class TestSnakePath:
    def test_covers_every_cell_once(self):
        path = snake_path(5, 4)
        assert len(path) == 20
        assert len(set(path)) == 20

    def test_adjacent_steps(self):
        path = snake_path(6, 3)
        for a, b in zip(path, path[1:]):
            assert a.manhattan_distance(b) == 1

    def test_starts_bottom_left(self):
        assert snake_path(4, 4)[0] == Point(1, 1)

    def test_top_start_variant(self):
        assert snake_path(4, 4, start_bottom_left=False)[0] == Point(1, 4)

    def test_single_cell(self):
        assert snake_path(1, 1) == [Point(1, 1)]

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            snake_path(0, 3)


class TestTestDroplet:
    def test_healthy_array_passes(self):
        outcome = TestDroplet().walk(frozenset(), snake_path(4, 4))
        assert outcome.passed
        assert outcome.steps_taken == 16

    def test_stalls_at_faulty_cell(self):
        path = snake_path(4, 4)
        outcome = TestDroplet().walk(frozenset({path[5]}), path)
        assert not outcome.passed
        assert outcome.stalled_before == path[5]
        assert outcome.steps_taken == 5

    def test_faulty_start_cell(self):
        outcome = TestDroplet().walk(frozenset({Point(1, 1)}), snake_path(3, 3))
        assert not outcome.passed and outcome.steps_taken == 0

    def test_non_adjacent_path_rejected(self):
        with pytest.raises(ValueError, match="adjacent"):
            TestDroplet().walk(frozenset(), [Point(1, 1), Point(3, 1)])

    def test_empty_path_rejected(self):
        with pytest.raises(ValueError):
            TestDroplet().walk(frozenset(), [])


class TestCapacitiveSensor:
    def test_threshold_must_separate_wet_dry(self):
        with pytest.raises(ValueError):
            CapacitiveSensor(threshold_pf=DRY_CAPACITANCE_PF / 2)
        with pytest.raises(ValueError):
            CapacitiveSensor(threshold_pf=WET_CAPACITANCE_PF * 2)

    def test_observation_matches_outcome(self):
        outcome = TestDroplet().walk(frozenset(), snake_path(3, 3))
        obs = CapacitiveSensor().observe(outcome)
        assert obs.droplet_arrived
        assert obs.capacitance_pf == WET_CAPACITANCE_PF

    def test_failed_walk_reads_dry(self):
        outcome = TestDroplet().walk(frozenset({Point(3, 3)}), snake_path(3, 3))
        obs = CapacitiveSensor().observe(outcome)
        assert not obs.droplet_arrived
        assert obs.capacitance_pf == DRY_CAPACITANCE_PF


class TestFaultLocalizer:
    def test_clean_path_reports_none(self):
        result = FaultLocalizer().localize(frozenset(), snake_path(4, 4))
        assert not result.fault_found
        assert result.runs == 1

    @given(idx=st.integers(0, 24))
    @settings(max_examples=25, deadline=None)
    def test_finds_exact_cell(self, idx):
        path = snake_path(5, 5)
        result = FaultLocalizer().localize(frozenset({path[idx]}), path)
        assert result.faulty_cell == path[idx]

    def test_logarithmic_run_count(self):
        path = snake_path(8, 8)  # 64 cells
        result = FaultLocalizer().localize(frozenset({path[37]}), path)
        # 1 full run + ceil(log2(64)) = 6 probes, plus slack for rounding.
        assert result.runs <= 8


class TestFreeCellPaths:
    def build_placement(self) -> Placement:
        p = Placement(8, 8)
        p.add(PlacedModule("a", MIXER_2X2, x=1, y=1, start=0, stop=10))
        return p

    def test_paths_cover_all_free_cells(self):
        p = self.build_placement()
        paths = free_cell_paths(p, at_time=5)
        covered = {cell for path in paths for cell in path}
        occupied = {cell for cell in p.get("a").footprint.cells()}
        everything = {Point(x, y) for x in range(1, 9) for y in range(1, 9)}
        assert covered == everything - occupied

    def test_paths_avoid_active_modules(self):
        p = self.build_placement()
        for path in free_cell_paths(p, at_time=5):
            for cell in path:
                assert not p.get("a").footprint.contains_point(cell)

    def test_inactive_modules_are_testable(self):
        p = self.build_placement()
        paths = free_cell_paths(p, at_time=15)  # module finished
        covered = {cell for path in paths for cell in path}
        assert Point(2, 2) in covered

    def test_paths_are_walkable(self):
        p = self.build_placement()
        for path in free_cell_paths(p, at_time=5):
            for a, b in zip(path, path[1:]):
                assert a.manhattan_distance(b) == 1


class TestOnlineTester:
    def test_plan_and_execute_clean(self):
        p = Placement(6, 6)
        p.add(PlacedModule("a", MIXER_2X2, x=1, y=1, start=0, stop=10))
        tester = OnlineTester()
        plan = tester.plan(p, at_time=5)
        report = tester.execute(frozenset(), plan)
        assert report.faults_found == ()

    def test_finds_fault_on_free_cell(self):
        p = Placement(6, 6)
        p.add(PlacedModule("a", MIXER_2X2, x=1, y=1, start=0, stop=10))
        tester = OnlineTester()
        report = tester.execute(frozenset({Point(6, 6)}), tester.plan(p, at_time=5))
        assert Point(6, 6) in report.faults_found

    def test_plan_covers_free_cells(self):
        p = Placement(6, 6)
        p.add(PlacedModule("a", MIXER_2X2, x=1, y=1, start=0, stop=10))
        plan = OnlineTester().plan(p, at_time=5)
        assert Point(6, 6) in plan.cells_covered
        assert Point(2, 2) not in plan.cells_covered

    def test_coverage_over_schedule(self):
        p = Placement(6, 6)
        p.add(PlacedModule("a", MIXER_2X2, x=1, y=1, start=0, stop=10))
        p.add(PlacedModule("b", MIXER_2X2, x=3, y=3, start=10, stop=20))
        plans = OnlineTester().coverage_over_schedule(p)
        assert set(plans) == {0, 10}
        # Cells under module a are testable once a finishes (t=10 plan).
        assert Point(1, 1) in plans[10].cells_covered
