"""Tests for the end-to-end SynthesisFlow."""

import pytest

from repro.assay.protocols.pcr import PCR_BINDING, build_pcr_mixing_graph
from repro.placement.annealer import AnnealingParams
from repro.placement.sa_placer import SimulatedAnnealingPlacer
from repro.placement.two_stage import TwoStagePlacer
from repro.synthesis.flow import SynthesisFlow


@pytest.fixture(scope="module")
def flow_result():
    flow = SynthesisFlow(
        placer=SimulatedAnnealingPlacer(params=AnnealingParams.fast(), seed=2),
        max_concurrent_ops=3,
        cell_capacity=63,
    )
    return flow.run(build_pcr_mixing_graph(), explicit_binding=PCR_BINDING)


class TestFlowStages:
    def test_all_stages_present(self, flow_result):
        assert len(flow_result.binding) == 7
        assert len(flow_result.schedule) == 7
        assert len(flow_result.placement_result.placement) == 7
        assert flow_result.fti_report is not None

    def test_schedule_respects_graph(self, flow_result):
        flow_result.schedule.validate_precedence(flow_result.graph)

    def test_placement_intervals_match_schedule(self, flow_result):
        for pm in flow_result.placement_result.placement:
            assert pm.start == flow_result.schedule.start(pm.op_id)
            assert pm.stop == flow_result.schedule.stop(pm.op_id)

    def test_convenience_accessors(self, flow_result):
        assert flow_result.makespan == 19.0
        assert flow_result.area_cells == flow_result.placement_result.area_cells
        assert flow_result.fti == flow_result.fti_report.fti
        assert flow_result.runtime_s > 0

    def test_summary_mentions_everything(self, flow_result):
        text = flow_result.summary()
        assert "pcr-mixing-stage" in text
        assert "makespan 19" in text
        assert "FTI" in text


class TestFlowWithTwoStage:
    def test_two_stage_result_unwrapped(self):
        flow = SynthesisFlow(
            placer=TwoStagePlacer(
                beta=20.0,
                stage1_params=AnnealingParams.fast(),
                stage2_params=AnnealingParams(
                    initial_temp=30.0, cooling=0.8, iterations_per_module=20,
                    freeze_rounds=2, window_gamma=0.4,
                ),
                seed=7,
            ),
            max_concurrent_ops=3,
        )
        result = flow.run(build_pcr_mixing_graph(), explicit_binding=PCR_BINDING)
        # The flow reports the stage-2 placement and its FTI report.
        result.placement_result.placement.validate()
        assert result.fti is not None

    def test_flow_binding_strategy_without_explicit(self):
        # A hint-free graph: the binder's strategy decides. (PCR's own
        # operations carry Table 1 hardware hints, which outrank it.)
        from repro.assay.graph import SequencingGraph
        from repro.assay.operations import Operation, OperationType

        g = SequencingGraph("hint-free")
        for op_id in ("a", "b", "c"):
            g.add_operation(Operation(op_id, OperationType.MIX))
        g.add_dependency("a", "c")
        g.add_dependency("b", "c")

        flow = SynthesisFlow(
            placer=SimulatedAnnealingPlacer(params=AnnealingParams.fast(), seed=1),
            max_concurrent_ops=3,
        )
        result = flow.run(g)
        # The flow binds by the fastest module: every mix on the 2x4 mixer.
        for _, spec in result.binding.items():
            assert spec.name == "mixer-2x4"

    def test_flow_honors_hardware_hints_over_strategy(self):
        flow = SynthesisFlow(
            placer=SimulatedAnnealingPlacer(params=AnnealingParams.fast(), seed=1),
            max_concurrent_ops=3,
        )
        result = flow.run(build_pcr_mixing_graph())
        # Operation hints (Table 1) outrank the fastest-module default:
        # every PCR mix binds to its table entry, not all to the 2x4 mixer.
        for op_id, hardware in PCR_BINDING.items():
            assert result.binding.spec_for(op_id).name == hardware
        assert result.binding.spec_for("M1").name == "mixer-2x2"


def placer_rng(flow):
    """The generator of the flow's default placer, seeded from the flow's."""
    return flow.pipeline.place.placer._rng


class TestFlowRngThreading:
    def test_flow_owns_an_explicit_generator(self):
        import random

        flow = SynthesisFlow(seed=11)
        assert isinstance(placer_rng(flow), random.Random)
        # Two flows with the same seed are independent yet reproducible.
        a = placer_rng(SynthesisFlow(seed=5)).random()
        b = placer_rng(SynthesisFlow(seed=5)).random()
        assert a == b

    def test_default_placer_seeded_from_flow_rng(self):
        # Same flow seed -> identically seeded default placer stream.
        p1 = placer_rng(SynthesisFlow(seed=3)).random()
        p2 = placer_rng(SynthesisFlow(seed=3)).random()
        assert p1 == p2

    def test_concurrent_flows_do_not_share_state(self):
        # Interleaving a second flow's construction must not perturb the
        # first flow's stream (would happen with the global random module).
        f1 = SynthesisFlow(seed=9)
        expected = placer_rng(SynthesisFlow(seed=9)).random()
        placer_rng(SynthesisFlow(seed=1234)).random()  # unrelated flow churns its own rng
        assert placer_rng(f1).random() == expected
