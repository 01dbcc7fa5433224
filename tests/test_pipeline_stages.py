"""Tests for the staged pipeline: stages, context, facade equivalence."""

import pickle
from dataclasses import replace

import pytest

from repro.assay.protocols.pcr import PCR_BINDING, build_pcr_mixing_graph
from repro.pipeline import (
    BindStage,
    Pipeline,
    PlaceStage,
    RouteStage,
    ScheduleStage,
    SimVerifyStage,
    Stage,
    SynthesisContext,
    build_default_pipeline,
)
from repro.placement.annealer import AnnealingParams
from repro.placement.sa_placer import SimulatedAnnealingPlacer
from repro.synthesis.flow import SynthesisFlow
from repro.util.errors import PipelineError
from repro.util.rng import ensure_rng, spawn_rng


def fast_placer(seed):
    return SimulatedAnnealingPlacer(params=AnnealingParams.fast(), seed=seed)


def placement_map(result):
    return {pm.op_id: (pm.x, pm.y) for pm in result.placement_result.placement}


class TestPipelineAssembly:
    def test_empty_pipeline_rejected(self):
        with pytest.raises(PipelineError, match="at least one stage"):
            Pipeline([])

    def test_duplicate_stage_names_rejected(self):
        with pytest.raises(PipelineError, match="duplicate"):
            Pipeline([BindStage(), BindStage()])

    def test_default_pipeline_stage_order(self):
        p = build_default_pipeline(route=True, verify=True, seed=1)
        assert p.stage_names == ("bind", "schedule", "place", "route", "verify")

    def test_builtin_stages_satisfy_protocol(self):
        for stage in build_default_pipeline(route=True, verify=True, seed=1)._stages:
            assert isinstance(stage, Stage)


class TestStagePrerequisites:
    def test_schedule_requires_binding(self):
        ctx = SynthesisContext(graph=build_pcr_mixing_graph())
        with pytest.raises(PipelineError, match="binding"):
            ScheduleStage().run(ctx)

    def test_place_requires_schedule(self):
        ctx = SynthesisContext(graph=build_pcr_mixing_graph())
        BindStage().run(ctx)
        with pytest.raises(PipelineError, match="schedule"):
            PlaceStage(fast_placer(1)).run(ctx)

    def test_route_requires_placement(self):
        ctx = SynthesisContext(graph=build_pcr_mixing_graph())
        with pytest.raises(PipelineError):
            RouteStage().run(ctx)

    def test_result_requires_mandatory_stages(self):
        ctx = SynthesisContext(graph=build_pcr_mixing_graph())
        with pytest.raises(PipelineError, match="missing"):
            ctx.result()


class TestFacadeEquivalence:
    """SynthesisFlow must be a faithful facade over the pipeline."""

    def test_facade_and_pipeline_identical_for_fixed_seed(self):
        graph = build_pcr_mixing_graph()
        flow = SynthesisFlow(placer=fast_placer(2), max_concurrent_ops=3)
        facade = flow.run(graph, explicit_binding=PCR_BINDING)

        pipeline = build_default_pipeline(placer=fast_placer(2), max_concurrent_ops=3)
        ctx = pipeline.run(
            SynthesisContext(graph=graph, explicit_binding=PCR_BINDING)
        )
        direct = ctx.result()

        assert placement_map(facade) == placement_map(direct)
        assert facade.area_cells == direct.area_cells
        assert facade.makespan == direct.makespan
        assert facade.fti == direct.fti

    def test_facade_exposes_its_pipeline(self):
        flow = SynthesisFlow(placer=fast_placer(1), route=True)
        assert flow.pipeline.stage_names == ("bind", "schedule", "place", "route")
        # The pipeline's stages are the facade's own components.
        stages = {stage.name: stage for stage in flow.pipeline._stages}
        assert stages["place"].placer is flow.placer
        assert stages["bind"].binder is flow.binder

    def test_default_placer_seeding_matches_legacy_derivation(self):
        # The facade's default placer draws one spawn from the flow rng —
        # the exact derivation the pre-pipeline flow used.
        flow = SynthesisFlow(seed=3)
        expected = spawn_rng(ensure_rng(3)).random()
        assert flow.placer._rng.random() == expected

    def test_stage_timings_recorded(self):
        result = SynthesisFlow(placer=fast_placer(1), route=True).run(
            build_pcr_mixing_graph(), explicit_binding=PCR_BINDING
        )
        assert list(result.stage_timings) == ["bind", "schedule", "place", "route"]
        assert all(t >= 0 for t in result.stage_timings.values())
        assert result.runtime_s == pytest.approx(sum(result.stage_timings.values()))


class TestContext:
    def test_context_picklable_at_every_stage(self):
        ctx = SynthesisContext(
            graph=build_pcr_mixing_graph(), explicit_binding=PCR_BINDING
        )
        for stage in build_default_pipeline(
            placer=fast_placer(1), route=True
        )._stages:
            stage.run(ctx)
            clone = pickle.loads(pickle.dumps(ctx))
            assert clone.graph.name == ctx.graph.name
        assert clone.routing_plan is not None
        assert clone.result().area_cells == ctx.result().area_cells

    def test_custom_stage_slots_in(self):
        class PeakDemandStage:
            """A user analysis stage: annotate peak cell demand."""

            name = "peak-demand"

            def __init__(self):
                self.peak = None

            def run(self, context):
                context.require("binding", "schedule")
                footprints = {
                    op: spec.footprint_area for op, spec in context.binding.items()
                }
                self.peak = context.schedule.peak_cell_demand(footprints)

        custom = PeakDemandStage()
        assert isinstance(custom, Stage)
        pipeline = Pipeline(
            [BindStage(), ScheduleStage(), custom, PlaceStage(fast_placer(1))]
        )
        ctx = pipeline.run(
            SynthesisContext(
                graph=build_pcr_mixing_graph(), explicit_binding=PCR_BINDING
            )
        )
        assert custom.peak is not None and custom.peak > 0
        assert "peak-demand" in ctx.stage_timings


class TestSimVerifyStage:
    def test_verify_stage_replays_the_routed_assay(self):
        pipeline = build_default_pipeline(
            placer=fast_placer(2), route=True, verify=True
        )
        ctx = pipeline.run(
            SynthesisContext(
                graph=build_pcr_mixing_graph(), explicit_binding=PCR_BINDING
            )
        )
        assert ctx.sim_report is not None
        assert ctx.sim_report.completed
        result = ctx.result()
        assert result.sim_report is ctx.sim_report
        assert "simulation: completed" in result.summary()
        assert isinstance(SimVerifyStage(), Stage)

    def test_verify_stage_injects_the_context_faults(self):
        # The scenario's faulty cells must actually be exercised by the
        # replay (fault event + recovery), not merely threaded through.
        pipeline = build_default_pipeline(
            placer=fast_placer(2), route=True, verify=True
        )
        ctx = pipeline.run(
            SynthesisContext(
                graph=build_pcr_mixing_graph(),
                explicit_binding=PCR_BINDING,
                faulty_cells=((4, 5),),
            )
        )
        assert sum(e.kind == "fault" for e in ctx.sim_report.events) == 1

        baseline = build_default_pipeline(
            placer=fast_placer(2), route=True, verify=True
        ).run(
            SynthesisContext(
                graph=build_pcr_mixing_graph(), explicit_binding=PCR_BINDING
            )
        )
        assert not any(e.kind == "fault" for e in baseline.sim_report.events)

    def test_context_canonicalizes_faulty_cell_tuples(self):
        from repro.geometry import Point

        ctx = SynthesisContext(
            graph=build_pcr_mixing_graph(), faulty_cells=[(2, 3)]
        )
        assert ctx.faulty_cells == (Point(2, 3),)
        assert replace(ctx, faulty_cells=[(1, 1)]).faulty_cells == (Point(1, 1),)
