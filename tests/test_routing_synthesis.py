"""Tests for the routing-synthesis stage and its flow/simulator integration."""

import pytest

from repro.assay.catalog import BUNDLED_ASSAYS, build_assay, is_generator_spec
from repro.assay.protocols.pcr import PCR_BINDING, build_pcr_mixing_graph
from repro.geometry import Point
from repro.placement.annealer import AnnealingParams
from repro.placement.chip import Chip
from repro.placement.sa_placer import SimulatedAnnealingPlacer
from repro.routing import RoutingSynthesizer
from repro.routing import synthesis as synthesis_module
from repro.routing.compact import compact_routes
from repro.routing.prioritized import PrioritizedRouter
from repro.routing.timegrid import TimeGrid
from repro.routing.plan import Net
from repro.sim.engine import BiochipSimulator
from repro.synthesis.flow import SynthesisFlow


def make_flow(**kwargs):
    return SynthesisFlow(
        placer=SimulatedAnnealingPlacer(params=AnnealingParams.fast(), seed=2),
        max_concurrent_ops=3,
        cell_capacity=63,
        **kwargs,
    )


@pytest.fixture(scope="module")
def routed_result():
    flow = make_flow(route=True)
    return flow.run(build_pcr_mixing_graph(), explicit_binding=PCR_BINDING)


class TestFlowIntegration:
    def test_flow_without_route_has_no_plan(self):
        result = make_flow().run(build_pcr_mixing_graph(), explicit_binding=PCR_BINDING)
        assert result.routing_plan is None
        assert result.total_route_steps is None
        assert result.max_net_latency is None
        assert result.routability is None
        assert "routing:" not in result.summary()

    def test_flow_with_route_produces_verified_plan(self, routed_result):
        plan = routed_result.routing_plan
        assert plan is not None
        plan.verify()  # raises on any conflict
        # PCR mixing stage: 6 placed-to-placed dependency edges.
        assert plan.routed_count == 6
        assert plan.routability == 1.0

    def test_result_metrics_mirror_plan(self, routed_result):
        plan = routed_result.routing_plan
        assert routed_result.total_route_steps == plan.total_route_steps
        assert routed_result.max_net_latency == plan.max_net_latency
        assert routed_result.routability == plan.routability
        assert "routing:" in routed_result.summary()

    def test_epochs_follow_schedule_instants(self, routed_result):
        plan = routed_result.routing_plan
        times = [e.time_s for e in plan.epochs]
        assert times == sorted(times)
        for epoch in plan.epochs:
            for rn in epoch.nets:
                consumer = rn.net.consumer
                assert routed_result.schedule.start(consumer) == epoch.time_s

    def test_plan_respects_known_faulty_cells(self):
        flow = make_flow(route=True)
        result = flow.run(
            build_pcr_mixing_graph(),
            explicit_binding=PCR_BINDING,
            faulty_cells=[(4, 3)],
        )
        plan = result.routing_plan
        plan.verify()
        bad = result.chip.cell((4, 3))
        for rn in plan.nets:
            assert bad not in rn.cells

    def test_flow_seed_isolated_from_global_random(self):
        import random

        random.seed(123)
        before = random.random()
        random.seed(123)
        make_flow(route=True).run(build_pcr_mixing_graph(), explicit_binding=PCR_BINDING)
        # The flow must not consume from the module-level generator.
        assert random.random() == before


class TestFanOutHolds:
    def test_staggered_fanout_models_remainder_as_hold_net(self):
        # A's product feeds B (immediately) and C (later). The share
        # remaining for C must exist as a zero-ish-move hold net so
        # traffic avoids it and the verifier can see it.
        from repro.assay.graph import SequencingGraph
        from repro.assay.operations import Operation, OperationType
        from repro.placement.greedy import GreedyPlacer
        from repro.synthesis.binder import ResourceBinder
        from repro.synthesis.scheduler import integerized, list_schedule

        g = SequencingGraph("fanout")
        for op in ("A", "B", "C"):
            g.add_operation(Operation(op, OperationType.MIX))
        g.add_dependency("A", "B")
        g.add_dependency("A", "C")
        binding = ResourceBinder().bind(g, strategy="smallest")
        schedule = integerized(
            list_schedule(g, binding.durations(), max_concurrent_ops=1)
        )
        placement = GreedyPlacer().place(schedule, binding).placement
        plan = RoutingSynthesizer().synthesize(g, schedule, placement, Chip.of(placement))
        plan.verify()
        assert plan.routability == 1.0
        ids = [rn.net.net_id for rn in plan.nets]
        assert "A@hold" in ids  # the remainder share is modeled
        hold = next(rn for rn in plan.nets if rn.net.net_id == "A@hold")
        assert hold.net.source == hold.net.goal


class TestSimulatorReplay:
    def test_replay_uses_planned_routes(self, routed_result):
        r = routed_result
        sim = BiochipSimulator(
            r.graph, r.schedule, r.binding, r.placement_result.placement, r.chip,
            routing_plan=r.routing_plan,
        )
        report = sim.run()
        assert report.completed
        assert report.planned_transports > 0
        assert any(
            e.kind == "transport" and "planned route" in e.detail for e in report.events
        )

    def test_replay_matches_serial_product(self, routed_result):
        r = routed_result
        baseline = BiochipSimulator(
            r.graph, r.schedule, r.binding, r.placement_result.placement, r.chip
        ).run()
        replay = BiochipSimulator(
            r.graph, r.schedule, r.binding, r.placement_result.placement, r.chip,
            routing_plan=r.routing_plan,
        ).run()
        assert baseline.completed and replay.completed
        assert baseline.planned_transports == 0
        assert replay.product.reagents == baseline.product.reagents
        assert replay.realized_makespan == baseline.realized_makespan

    def test_replay_degrades_to_router_under_faults(self, routed_result):
        r = routed_result
        sim = BiochipSimulator(
            r.graph, r.schedule, r.binding, r.placement_result.placement, r.chip,
            routing_plan=r.routing_plan,
        )
        report = sim.run(faults=[(8.0, sim.module_cell("M6"))])
        assert report.completed
        assert report.relocations  # the fault really hit a module


def assert_no_net_worse(before, after):
    """*after* holds every net of *before*, in order, none of them with
    more latency or more moves."""
    assert [rn.net.net_id for rn in after] == [rn.net.net_id for rn in before]
    for old, new in zip(before, after):
        assert new.latency <= old.latency, old.net.net_id
        assert new.moves <= old.moves, old.net.net_id


class TestCompaction:
    def test_compaction_never_lengthens(self):
        grid = TimeGrid(9, 9)
        nets = [
            Net("a", Point(1, 5), Point(9, 5), priority=1.0),
            Net("b", Point(5, 1), Point(5, 9)),
        ]
        router = PrioritizedRouter()
        horizon = router.default_horizon(grid, nets)
        routed, failed = router.route_all(nets, grid, horizon)
        assert not failed
        assert_no_net_worse(routed, compact_routes(routed, grid, router, horizon))

    @pytest.mark.parametrize(
        "assay", [*sorted(BUNDLED_ASSAYS), "gen:mix-tree:n=40:seed=250"]
    )
    def test_synthesis_compaction_never_worsens_a_net(self, assay, monkeypatch):
        calls = []

        def recording(routed, grid, router, horizon):
            before = list(routed)
            after = compact_routes(routed, grid, router, horizon)
            calls.append((before, after))
            return after

        monkeypatch.setattr(synthesis_module, "compact_routes", recording)
        graph, binding = build_assay(assay)
        flow = make_flow(route=True, max_parked=2 if is_generator_spec(assay) else None)
        result = flow.run(graph, explicit_binding=binding)
        assert calls  # one per multi-net epoch that routed nets
        for before, after in calls:
            assert_no_net_worse(before, after)
        result.routing_plan.verify()


def _placed_design(spec):
    graph, binding = build_assay(spec)
    flow = make_flow(route=False, max_parked=2 if is_generator_spec(spec) else None)
    result = flow.run(graph, explicit_binding=binding)
    return graph, result.schedule, result.placement_result.placement, result.chip


class CountingRouter(PrioritizedRouter):
    """Counts single-net searches per net id."""

    def __init__(self):
        super().__init__(strict=False)
        self.searches = {}

    def route_one(self, net, grid, horizon):
        self.searches[net.net_id] = self.searches.get(net.net_id, 0) + 1
        return super().route_one(net, grid, horizon)


class TestSingleNetEpochs:
    def test_lone_net_is_searched_once(self):
        from oracles import ReferenceSynthesizer

        inputs = _placed_design("gen:mix-tree:n=40:seed=250")
        router = CountingRouter()
        plan = RoutingSynthesizer(router=router).synthesize(*inputs)
        lone = [
            epoch.nets[0] for epoch in plan.epochs
            if len(epoch.nets) == 1 and not epoch.failed
        ]
        assert lone
        for rn in lone:
            assert router.searches[rn.net.net_id] == 1, rn.net.net_id
        # Some lone net arrived off its lower bound, so a compaction
        # pass would have searched it a second time.
        assert any(
            rn.latency > rn.net.manhattan or rn.waits or rn.start_step for rn in lone
        )
        assert plan == ReferenceSynthesizer(reference=True).synthesize(*inputs)


class TestPerSynthesisIndex:
    def test_shape_tables_are_shared_within_one_call_only(self):
        shapes = []

        class RecordingGrid(TimeGrid):
            def __init__(self, width, height, shape=None):
                super().__init__(width, height, shape)
                shapes.append(self.shape)

        inputs = _placed_design("tree16")
        synthesizer = RoutingSynthesizer()
        synthesizer.grid_factory = RecordingGrid
        state = dict(vars(synthesizer))
        first = synthesizer.synthesize(*inputs)
        first_shapes, shapes[:] = list(shapes), []
        second = synthesizer.synthesize(*inputs)
        assert len(first_shapes) == len(first.epochs) > 1
        assert all(shape is first_shapes[0] for shape in first_shapes)
        assert all(shape is shapes[0] for shape in shapes)
        assert shapes[0] is not first_shapes[0]
        # Nothing outlives a call: the synthesizer holds what it held
        # before, and a second call returns the same plan.
        assert vars(synthesizer) == state
        assert second == first == RoutingSynthesizer().synthesize(*inputs)
