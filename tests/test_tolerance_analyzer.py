"""Tests for the extended tolerance analysis (multi-fault, criticality)."""

import pytest
from oracles import reference_fti

from repro.fault.fti import compute_fti
from repro.fault.tolerance import ToleranceAnalyzer
from repro.modules.library import MIXER_2X2, STORAGE_1X1
from repro.placement.model import PlacedModule, Placement


def pm(op, spec=MIXER_2X2, x=1, y=1, start=0.0, stop=10.0):
    return PlacedModule(op_id=op, spec=spec, x=x, y=y, start=start, stop=stop)


@pytest.fixture(scope="module")
def analyzer():
    return ToleranceAnalyzer()


class TestCriticality:
    def test_stuck_counts_sum_to_module_uncovered(self, analyzer, sa_result):
        crits = analyzer.criticality(sa_result.placement)
        report = compute_fti(sa_result.placement)
        for crit in crits:
            assert crit.stuck_cells == len(report.per_module[crit.op_id].stuck_cells)

    def test_criticality_matches_mer_reference(self, analyzer, sa_result):
        """Per-module stuck cells agree with the paper's per-cell MER
        procedure on the bounding array."""
        analyzed = sa_result.placement.normalized()
        reference = reference_fti(
            analyzed, "mer", analyzed.core_width, analyzed.core_height
        )
        for crit in analyzer.criticality(sa_result.placement):
            stuck = reference.per_module[crit.op_id].stuck_cells
            assert crit.stuck_cells == len(stuck)

    def test_sorted_most_critical_first(self, analyzer, sa_result):
        crits = analyzer.criticality(sa_result.placement)
        stuck = [c.stuck_cells for c in crits]
        assert stuck == sorted(stuck, reverse=True)

    def test_stuck_fraction_bounds(self, analyzer, sa_result):
        for crit in analyzer.criticality(sa_result.placement):
            assert 0.0 <= crit.stuck_fraction <= 1.0

    def test_module_filling_its_array_is_all_stuck(self, analyzer):
        # On its own 4x4 bounding array the 4x4 mixer can never relocate.
        p = Placement(8, 8)
        p.add(pm("a"))
        assert analyzer.criticality(p)[0].stuck_cells == 16


class TestSpareStatistics:
    def test_interval_accounting(self, analyzer):
        p = Placement(8, 4)
        p.add(pm("a", x=1, y=1, start=0, stop=10))   # 16 used of 32
        p.add(pm("b", x=5, y=1, start=10, stop=20))
        stats = analyzer.spare_statistics(p)
        assert len(stats.intervals) == 2
        for _, free, total in stats.intervals:
            assert total == 32
            assert free == 16

    def test_min_free_is_bottleneck(self, analyzer, sa_result):
        stats = analyzer.spare_statistics(sa_result.placement)
        assert stats.min_free_cells == min(f for _, f, _ in stats.intervals)

    def test_matches_per_cell_count(self, analyzer, sa_result):
        """Free cells per interval equal a cell-by-cell count of the
        bounding array, overlapping footprints counted once."""
        placement = sa_result.placement.normalized()
        w, h = placement.core_width, placement.core_height
        stats = analyzer.spare_statistics(sa_result.placement)
        events = placement.event_times()
        assert [t for t, _, _ in stats.intervals] == events[:-1]
        for t, free, total in stats.intervals:
            used = set()
            for m in placement.active_at(t):
                used.update(m.footprint.cells())
            cells = {(x, y) for x in range(1, w + 1) for y in range(1, h + 1)}
            assert total == len(cells)
            assert free == len(cells - used)

    def test_mean_utilization_bounds(self, analyzer, sa_result):
        stats = analyzer.spare_statistics(sa_result.placement)
        assert 0.0 < stats.mean_utilization <= 1.0


class TestMultiFault:
    def test_zero_tolerance_placement(self, analyzer):
        # A module filling its array can never survive fault #1.
        p = Placement(4, 4)
        p.add(pm("a"))
        result = analyzer.multi_fault_survival(p, trials=20, seed=3)
        assert result.mean_faults_to_failure == 0.0
        assert result.survival_probability(1) == 0.0

    def test_storage_on_big_array_survives_many(self, analyzer):
        # A later store in the far corner spans the bounding array to 8x8.
        p = Placement(8, 8)
        p.add(pm("a", spec=STORAGE_1X1))
        p.add(pm("b", spec=STORAGE_1X1, x=6, y=6, start=10.0, stop=20.0))
        result = analyzer.multi_fault_survival(
            p, trials=10, max_faults=5, seed=3
        )
        # Each 3x3 store on an 8x8 array dodges several faults easily.
        assert result.mean_faults_to_failure >= 2.0

    def test_survival_probability_monotone_in_k(self, analyzer, sa_result):
        result = analyzer.multi_fault_survival(
            sa_result.placement, trials=30, max_faults=6, seed=9
        )
        probs = [result.survival_probability(k) for k in range(1, 6)]
        assert probs == sorted(probs, reverse=True)

    def test_first_fault_survival_tracks_fti(self, analyzer, sa_result):
        """P(survive >= 1 sequential fault) must estimate the FTI."""
        fti = compute_fti(sa_result.placement).fti
        result = analyzer.multi_fault_survival(
            sa_result.placement, trials=150, max_faults=1, seed=5
        )
        assert result.survival_probability(1) == pytest.approx(fti, abs=0.12)

    def test_histogram_totals_trials(self, analyzer, sa_result):
        result = analyzer.multi_fault_survival(
            sa_result.placement, trials=25, max_faults=4, seed=1
        )
        assert sum(result.histogram().values()) == 25

    def test_trials_validated(self, analyzer, sa_result):
        with pytest.raises(ValueError):
            analyzer.multi_fault_survival(sa_result.placement, trials=0)
