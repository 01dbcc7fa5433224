"""to_dict() contracts: every result dataclass emits JSON-safe output."""

import json

import pytest

from repro.assay.protocols.pcr import PCR_BINDING, build_pcr_mixing_graph
from repro.placement.annealer import AnnealingParams
from repro.placement.sa_placer import SimulatedAnnealingPlacer
from repro.placement.two_stage import TwoStagePlacer
from repro.sim.engine import BiochipSimulator
from repro.synthesis.flow import SynthesisFlow


def round_trips(d):
    return json.loads(json.dumps(d)) == d


@pytest.fixture(scope="module")
def routed_result():
    flow = SynthesisFlow(
        placer=SimulatedAnnealingPlacer(params=AnnealingParams.fast(), seed=2),
        route=True,
    )
    return flow.run(build_pcr_mixing_graph(), explicit_binding=PCR_BINDING)


class TestSynthesisResultDict:
    def test_round_trips(self, routed_result):
        assert round_trips(routed_result.to_dict())

    def test_top_level_metrics(self, routed_result):
        d = routed_result.to_dict()
        assert d["assay"] == "pcr-mixing-stage"
        assert d["operations"] == 7
        assert d["makespan_s"] == routed_result.makespan
        assert d["area_cells"] == routed_result.area_cells
        assert d["fti"] == routed_result.fti
        assert d["array"] == list(routed_result.placement_result.array_dims)

    def test_nested_sections_present(self, routed_result):
        d = routed_result.to_dict()
        assert set(d["stage_timings"]) == {"bind", "schedule", "place", "route"}
        assert d["routing"] is not None
        assert d["simulation"] is None  # no verify stage in this flow

    def test_unrouted_flow_has_null_routing(self):
        flow = SynthesisFlow(
            placer=SimulatedAnnealingPlacer(params=AnnealingParams.fast(), seed=2)
        )
        d = flow.run(build_pcr_mixing_graph(), explicit_binding=PCR_BINDING).to_dict()
        assert d["routing"] is None
        assert round_trips(d)


class TestScheduleDict:
    def test_intervals_and_makespan(self, routed_result):
        d = routed_result.schedule.to_dict()
        assert round_trips(d)
        assert d["makespan_s"] == routed_result.makespan
        assert len(d["operations"]) == 7
        for start, stop in d["operations"].values():
            assert 0 <= start < stop <= d["makespan_s"]


class TestPlacementResultDict:
    def test_modules_and_dims(self, routed_result):
        d = routed_result.placement_result.to_dict()
        assert round_trips(d)
        assert d["area_cells"] == d["array"][0] * d["array"][1]
        assert len(d["modules"]) == 7
        for m in d["modules"].values():
            assert len(m["origin"]) == 2 and len(m["size"]) == 2


class TestFTIReportDict:
    def test_counts_consistent(self, routed_result):
        d = routed_result.fti_report.to_dict()
        assert round_trips(d)
        assert d["cell_count"] == d["array"][0] * d["array"][1]
        assert (
            d["fault_tolerance_number"] + len(d["uncovered_cells"])
            == d["cell_count"]
        )
        assert d["fti"] == pytest.approx(
            d["fault_tolerance_number"] / d["cell_count"]
        )


class TestRoutingPlanDict:
    def test_summary_and_nets(self, routed_result):
        plan = routed_result.routing_plan
        d = plan.to_dict()
        assert round_trips(d)
        assert d["routed_count"] == len(d["nets"])
        assert d["routability"] == 1.0
        assert d["total_route_steps"] == sum(n["moves"] for n in d["nets"])
        for n in d["nets"]:
            assert n["latency"] == n["moves"] + n["waits"]


class TestSimulationReportDict:
    def test_replay_report(self, routed_result):
        sim = BiochipSimulator(
            routed_result.graph,
            routed_result.schedule,
            routed_result.binding,
            routed_result.placement_result.placement,
            routed_result.chip,
            routing_plan=routed_result.routing_plan,
        )
        report = sim.run()
        d = report.to_dict()
        assert round_trips(d)
        assert d["completed"] is True
        assert d["realized_makespan_s"] >= d["nominal_makespan_s"]
        assert d["planned_transports"] > 0


class TestTwoStageResultDict:
    def test_both_stages_nested(self):
        placer = TwoStagePlacer(
            beta=20.0, stage1_params=AnnealingParams.fast(), seed=7
        )
        flow = SynthesisFlow(placer=placer)
        result = flow.run(build_pcr_mixing_graph(), explicit_binding=PCR_BINDING)
        # The flow unwraps stage 2; serialize the full two-stage result
        # straight from the placer for the paper's comparison numbers.
        two_stage = placer.place(result.schedule, result.binding)
        d = two_stage.to_dict()
        assert round_trips(d)
        assert d["stage1"]["area_cells"] >= 0
        assert d["stage2"]["area_cells"] == two_stage.stage2.area_cells
