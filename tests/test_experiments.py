"""Tests for the experiment harnesses (paper tables and figures)."""

import pytest

from repro.experiments import paper_constants as paper
from repro.experiments.fig2 import demonstrate_3d_reduction
from repro.experiments.fig4 import run_reconfiguration_example
from repro.experiments.fig5 import describe_pcr_graph
from repro.experiments.pcr import pcr_case_study, verify_table1


class TestTable1:
    def test_library_matches_paper_exactly(self):
        assert verify_table1() == []

    def test_rows_cover_all_ops(self):
        rows = pcr_case_study().table1_rows()
        assert [r[0] for r in rows] == ["M1", "M2", "M3", "M4", "M5", "M6", "M7"]

    def test_table_text_renders(self):
        text = pcr_case_study().table1_text()
        assert "2x2 electrode array" in text
        assert "10s" in text


class TestFig5:
    def test_structure(self):
        facts = describe_pcr_graph()
        assert facts.node_count == 7
        assert facts.edge_count == 6
        assert facts.is_balanced_binary_tree

    def test_critical_path(self):
        facts = describe_pcr_graph()
        # M3 (6) -> M6 (10) -> M7 (3) = 19 s.
        assert facts.critical_path == ("M3", "M6", "M7")


class TestFig6Schedule:
    def test_makespan_is_critical_path(self):
        study = pcr_case_study()
        # The concurrency cap costs no makespan on PCR.
        assert study.makespan == 19.0

    def test_peak_demand_fits_paper_array(self):
        study = pcr_case_study()
        assert study.peak_cell_demand <= 63

    def test_schedule_respects_dependencies(self):
        study = pcr_case_study()
        study.schedule.validate_precedence(study.graph)


class TestFig2:
    def test_cuts_are_overlap_free(self):
        demo = demonstrate_3d_reduction(seed=11)
        assert all(demo.cut_is_overlap_free(t) for t in demo.time_planes)

    def test_box_volume_is_module_work(self):
        demo = demonstrate_3d_reduction(seed=11)
        # sum of footprint x duration over Table 1:
        # 16*10+18*5+20*6+18*5+18*5+16*10+24*3 = 782 cell-seconds.
        assert demo.total_box_volume == pytest.approx(782.0)

    def test_every_module_boxed(self):
        demo = demonstrate_3d_reduction(seed=11)
        assert set(demo.boxes) == {"M1", "M2", "M3", "M4", "M5", "M6", "M7"}

    def test_cut_contents_match_schedule(self):
        demo = demonstrate_3d_reduction(seed=11)
        study = pcr_case_study()
        for t in demo.time_planes:
            assert set(demo.cuts[t]) == set(study.schedule.active_at(t))


class TestFig4:
    def test_reconfiguration_example(self):
        exp = run_reconfiguration_example(seed=23)
        assert exp.moved_modules  # at least one module relocated
        assert exp.migration_distance >= 1
        exp.placement_after.validate()
        for op in exp.moved_modules:
            assert not exp.placement_after.get(op).footprint.contains_point(
                exp.faulty_cell
            )

    def test_initial_placement_is_feasible(self):
        exp = run_reconfiguration_example(seed=23)
        assert exp.initial_placement.is_feasible()

    def test_untouched_modules_stay(self):
        exp = run_reconfiguration_example(seed=23)
        for op in exp.plan.untouched:
            assert exp.placement_after.get(op) == exp.placement_before.get(op)


class TestPaperConstants:
    def test_cell_area(self):
        assert paper.CELL_AREA_MM2 == pytest.approx(2.25)

    def test_areas_consistent_with_cells(self):
        assert paper.GREEDY_AREA_CELLS * paper.CELL_AREA_MM2 == pytest.approx(
            paper.GREEDY_AREA_MM2
        )
        assert paper.MIN_AREA_CELLS * paper.CELL_AREA_MM2 == pytest.approx(
            paper.MIN_AREA_MM2
        )
        for beta, (area, _) in paper.TABLE2.items():
            assert (area / paper.CELL_AREA_MM2) == pytest.approx(
                round(area / paper.CELL_AREA_MM2)
            ), f"beta={beta} area is not a whole number of cells"

    def test_table2_monotone(self):
        areas = [a for a, _ in paper.TABLE2.values()]
        ftis = [f for _, f in paper.TABLE2.values()]
        assert areas == sorted(areas)
        assert ftis == sorted(ftis)

    def test_min_area_fti_matches_covered_count(self):
        assert paper.MIN_AREA_COVERED_CELLS / paper.MIN_AREA_CELLS == pytest.approx(
            paper.MIN_AREA_FTI, abs=5e-4
        )
