"""Tests for the on-line testing substrate (refs [13]/[14])."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import Point
from repro.modules.library import MIXER_2X2
from repro.placement.model import PlacedModule, Placement
from repro.testing.detector import CapacitiveSensor
from repro.testing.localize import FaultLocalizer
from repro.testing.test_droplet import (
    PlannedPath,
    TestDroplet,
    free_cell_paths,
    snake_path,
)


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

    def test_planned_path_is_checked_once_where_planned(self, monkeypatch):
        # A non-adjacent path cannot be planned; a planned one is walked
        # without re-checking its steps, with the outcome of the same
        # cells passed as a plain list (which is still checked).
        with pytest.raises(ValueError, match="adjacent"):
            PlannedPath([Point(1, 1), Point(3, 1)])
        path = snake_path(4, 4)
        planned = PlannedPath(path)
        dead = frozenset({path[6]})
        calls = []
        distance = Point.manhattan_distance

        def spy(self, other):
            calls.append(self)
            return distance(self, other)

        monkeypatch.setattr(Point, "manhattan_distance", spy)
        outcome = TestDroplet().walk(dead, planned)
        assert calls == []
        assert outcome == TestDroplet().walk(dead, list(path))
        assert len(calls) == len(path) - 1


class TestCapacitiveSensor:
    def test_observation_matches_outcome(self):
        outcome = TestDroplet().walk(frozenset(), snake_path(3, 3))
        assert CapacitiveSensor().observe(outcome.passed, random.Random(0))

    def test_failed_walk_reads_dry(self):
        outcome = TestDroplet().walk(frozenset({Point(3, 3)}), snake_path(3, 3))
        assert not CapacitiveSensor().observe(outcome.passed, random.Random(0))

    def test_ideal_sensor_never_draws(self):
        rng = random.Random(0)
        state = rng.getstate()
        for arrived in (True, False):
            CapacitiveSensor().observe(arrived, rng)
        assert rng.getstate() == state

    def test_misreads_draw_from_the_rng(self):
        # One draw per read; a read errs when the draw falls under its
        # rate, and only the rate matching the truth is consulted.
        sensor = CapacitiveSensor(false_positive_rate=0.5, false_negative_rate=0.25)
        draws = random.Random(3)
        expected = [r >= 0.5 for r in (draws.random() for _ in range(50))]
        rng = random.Random(3)
        assert [sensor.observe(True, rng) for _ in range(50)] == expected
        draws = random.Random(4)
        expected = [r < 0.25 for r in (draws.random() for _ in range(50))]
        rng = random.Random(4)
        assert [sensor.observe(False, rng) for _ in range(50)] == expected

    def test_observe_requires_an_rng(self):
        with pytest.raises(TypeError):
            CapacitiveSensor().observe(True)


class TestFaultLocalizer:
    def test_clean_path_reports_none(self):
        result = FaultLocalizer().localize(
            frozenset(), snake_path(4, 4), random.Random(0)
        )
        assert not result.fault_found
        assert result.runs == 1

    @given(idx=st.integers(0, 24))
    @settings(max_examples=25, deadline=None)
    def test_finds_exact_cell(self, idx):
        path = snake_path(5, 5)
        result = FaultLocalizer().localize(
            frozenset({path[idx]}), path, random.Random(0)
        )
        assert result.faulty_cell == path[idx]

    def test_logarithmic_run_count(self):
        path = snake_path(8, 8)  # 64 cells
        result = FaultLocalizer().localize(
            frozenset({path[37]}), path, random.Random(0)
        )
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

    def test_paths_are_planned_paths(self):
        paths = free_cell_paths(self.build_placement(), at_time=5)
        assert paths and all(type(path) is PlannedPath for path in paths)

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
