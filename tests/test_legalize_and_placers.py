"""Tests for bottom-left placement, greedy baseline, SA and two-stage
placers on the PCR case study."""

import math
from dataclasses import replace

import pytest

from repro.modules.library import MIXER_2X2, MIXER_2X4, MIXER_LINEAR_1X4
from repro.placement.annealer import AnnealingParams
from repro.placement import greedy
from repro.placement.greedy import GreedyPlacer, build_placed_modules
from repro.placement.initial import constructive_initial_placement
from repro.placement.legalize import first_feasible_position, repair_overlaps
from repro.placement.model import PlacedModule, Placement
from repro.placement.sa_placer import (
    CORE_DEMAND_SLACK,
    SimulatedAnnealingPlacer,
    default_core_side,
)
from repro.util.errors import PlacementError


def pm(op, spec=MIXER_2X2, x=1, y=1, start=0.0, stop=10.0):
    return PlacedModule(op_id=op, spec=spec, x=x, y=y, start=start, stop=stop)


class TestFirstFeasiblePosition:
    def test_empty_space_gets_origin(self):
        seated = first_feasible_position([], pm("a", x=5, y=5), 10, 10)
        assert (seated.x, seated.y) == (1, 1)

    def test_avoids_concurrent_obstacle(self):
        obstacle = pm("o", x=1, y=1)
        seated = first_feasible_position([obstacle], pm("a"), 10, 10)
        assert not seated.footprint.intersects(obstacle.footprint)

    def test_ignores_time_disjoint_obstacle(self):
        obstacle = pm("o", x=1, y=1, start=10, stop=20)
        seated = first_feasible_position([obstacle], pm("a"), 10, 10)
        assert (seated.x, seated.y) == (1, 1)

    def test_returns_none_when_impossible(self):
        obstacle = pm("o", x=1, y=1)
        assert first_feasible_position([obstacle], pm("a"), 4, 4) is None

    def test_rotation_unlocks_fit(self):
        mod = pm("a", spec=MIXER_LINEAR_1X4)  # 6x3
        assert first_feasible_position([], mod, 3, 6, allow_rotation=False) is None
        seated = first_feasible_position([], mod, 3, 6, allow_rotation=True)
        assert seated is not None and seated.rotated

    def test_bottom_left_order(self):
        obstacle = pm("o", x=1, y=1)  # blocks the 4x4 corner
        seated = first_feasible_position([obstacle], pm("a"), 20, 20)
        # First feasible in row-major scan: right of the obstacle, row 1.
        assert (seated.x, seated.y) == (5, 1)


class TestRepairOverlaps:
    def test_feasible_placement_untouched(self):
        p = Placement(12, 12)
        p.add(pm("a", x=1, y=1))
        p.add(pm("b", x=5, y=1))
        repaired = repair_overlaps(p)
        assert repaired.is_feasible()
        assert repaired.get("a") == p.get("a")

    def test_repairs_conflict(self):
        p = Placement(12, 12)
        p.add(pm("a", x=1, y=1))
        p.add(pm("b", x=2, y=2))
        repaired = repair_overlaps(p)
        assert repaired.is_feasible()

    def test_impossible_core_raises(self):
        p = Placement(5, 4)
        p.add(pm("a", x=1, y=1))
        p.add(pm("b", x=2, y=1))
        with pytest.raises(PlacementError):
            repair_overlaps(p)


class TestConstructiveInitial:
    def test_pcr_initial_is_feasible(self, pcr_modules):
        placement = constructive_initial_placement(pcr_modules, 12, 12)
        assert placement.is_feasible()
        assert len(placement) == 7

    def test_too_small_core_raises(self, pcr_modules):
        with pytest.raises(PlacementError):
            constructive_initial_placement(pcr_modules, 6, 6)

    def test_initial_is_deterministic(self, pcr_modules):
        a = constructive_initial_placement(pcr_modules, 12, 12)
        b = constructive_initial_placement(pcr_modules, 12, 12)
        assert {m.op_id: (m.x, m.y) for m in a} == {m.op_id: (m.x, m.y) for m in b}


class TestGreedyPlacer:
    def test_result_is_feasible(self, greedy_result):
        greedy_result.placement.validate()

    def test_all_modules_placed(self, greedy_result):
        assert len(greedy_result.placement) == 7

    def test_area_in_paper_ballpark(self, greedy_result):
        """Paper: 84 cells. Any honest bottom-left greedy lands nearby;
        the key property is that it is clearly worse than SA."""
        assert 63 <= greedy_result.area_cells <= 110

    def test_area_mm2_conversion(self, greedy_result):
        assert greedy_result.area_mm2 == pytest.approx(
            greedy_result.area_cells * 2.25
        )

    def test_deterministic(self, pcr, greedy_result):
        again = GreedyPlacer().place(pcr.schedule, pcr.binding)
        assert again.area_cells == greedy_result.area_cells

    def test_core_too_small_raises(self, pcr, monkeypatch):
        monkeypatch.setattr(greedy, "CORE_SIDE", 5)
        with pytest.raises(PlacementError, match="5x5 core"):
            GreedyPlacer().place(pcr.schedule, pcr.binding)


class TestBuildPlacedModules:
    def test_builds_all_bound_ops(self, pcr):
        mods = build_placed_modules(pcr.schedule, pcr.binding)
        assert {m.op_id for m in mods} == set(pcr.binding.durations())

    def test_intervals_match_schedule(self, pcr):
        for m in build_placed_modules(pcr.schedule, pcr.binding):
            assert m.start == pcr.schedule.start(m.op_id)
            assert m.stop == pcr.schedule.stop(m.op_id)

    def test_plain_dict_binding_accepted(self, pcr):
        mapping = dict(pcr.binding.items())
        mods = build_placed_modules(pcr.schedule, mapping)
        assert len(mods) == 7

    def test_unscheduled_op_raises(self, pcr):
        mapping = dict(pcr.binding.items())
        mapping["ghost"] = MIXER_2X4
        with pytest.raises(PlacementError):
            build_placed_modules(pcr.schedule, mapping)


class TestDefaultCoreSide:
    def test_at_least_largest_dimension(self, pcr_modules):
        side = default_core_side(pcr_modules)
        max_dim = max(max(m.spec.footprint_width, m.spec.footprint_height)
                      for m in pcr_modules)
        assert side >= max_dim

    def test_scales_with_peak_demand(self, pcr_modules):
        # Every module live at once: the peak is the whole cell demand.
        crowd = [replace(m, start=0.0, stop=1.0) for m in pcr_modules]
        demand = sum(m.spec.footprint_area for m in crowd)
        side = default_core_side(crowd)
        assert side == math.ceil(math.sqrt(CORE_DEMAND_SLACK * demand))
        assert side > default_core_side(pcr_modules)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            default_core_side([])


class TestSAPlacer:
    def test_result_is_feasible_and_normalized(self, sa_result):
        p = sa_result.placement
        p.validate()
        bb = p.bounding_box()
        assert (bb.x, bb.y) == (1, 1)

    def test_beats_or_matches_greedy(self, sa_result, greedy_result):
        """The paper's headline: SA 63 cells vs greedy 84 (25% less)."""
        assert sa_result.area_cells < greedy_result.area_cells

    def test_area_near_paper_optimum(self, sa_result):
        """Paper: 63 cells. Leave slack for SA noise with the fast preset."""
        assert sa_result.area_cells <= 72

    def test_deterministic_with_seed(self, pcr, sa_result):
        placer = SimulatedAnnealingPlacer(params=AnnealingParams.fast(), seed=2)
        again = placer.place(pcr.schedule, pcr.binding)
        assert again.area_cells == sa_result.area_cells
        assert {m.op_id: (m.x, m.y, m.rotated) for m in again.placement} == {
            m.op_id: (m.x, m.y, m.rotated) for m in sa_result.placement
        }

    def test_stats_populated(self, sa_result):
        s = sa_result.stats
        assert s.evaluations > 0
        assert s.stop_reason in ("window-frozen", "min-temp", "max-rounds")

    def test_respects_explicit_core(self, pcr):
        placer = SimulatedAnnealingPlacer(
            params=AnnealingParams.fast(), core_width=14, core_height=14, seed=1
        )
        result = placer.place(pcr.schedule, pcr.binding)
        result.placement.validate()


class TestTwoStagePlacer:
    def test_stage2_feasible(self, two_stage_result):
        two_stage_result.placement.validate()

    def test_fti_improves(self, two_stage_result):
        """The whole point of LTSA: stage 2 buys fault tolerance."""
        assert two_stage_result.fti >= two_stage_result.fti_stage1.fti

    def test_reports_both_stages(self, two_stage_result):
        assert two_stage_result.stage1.area_cells > 0
        assert two_stage_result.stage2.area_cells > 0
        assert 0 <= two_stage_result.fti <= 1

    def test_percentage_metrics(self, two_stage_result):
        r = two_stage_result
        assert r.area_increase_pct == pytest.approx(
            100 * (r.stage2.area_mm2 / r.stage1.area_mm2 - 1)
        )
