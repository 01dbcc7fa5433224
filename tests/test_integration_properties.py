"""Cross-module property and integration tests.

These pin the contracts that individual unit tests cannot see:
random move sequences preserve placement invariants; arbitrary
generated assays survive the whole flow; the simulator's realized
timeline never beats the nominal schedule; and FTI, reconfiguration,
and Monte-Carlo survival tell one consistent story.
"""

import pytest
from assays import random_assay
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import FullRecomputeMoves

from repro.fault.fti import compute_fti
from repro.placement.annealer import AnnealingParams
from repro.placement.chip import Chip
from repro.placement.initial import constructive_initial_placement
from repro.placement.sa_placer import SimulatedAnnealingPlacer
from repro.pipeline.context import SynthesisContext
from repro.pipeline.stages import BindStage, PlaceStage, ScheduleStage
from repro.placement.window import ControllingWindow
from repro.sim.engine import BiochipSimulator
from repro.synthesis.flow import SynthesisFlow
from repro.synthesis.scheduler import list_schedule


class TestMoveInvariants:
    @given(seed=st.integers(0, 10_000), steps=st.integers(1, 60))
    @settings(max_examples=40, deadline=None)
    def test_random_walks_preserve_structure(self, pcr_modules, seed, steps):
        """Any move sequence keeps: module count, op identity, specs,
        time spans, and in-core footprints. Only (x, y, rotation) move."""
        placement = constructive_initial_placement(pcr_modules, 12, 12)
        window = ControllingWindow(initial_temp=100, max_span=11)
        mover = FullRecomputeMoves(window=window, seed=seed)
        original = {pm.op_id: pm for pm in placement}
        current = placement
        for _ in range(steps):
            current = mover.propose(current, 50.0)
        assert len(current) == len(original)
        for pm in current:
            ref = original[pm.op_id]
            assert pm.spec is ref.spec
            assert (pm.start, pm.stop) == (ref.start, ref.stop)
            fp = pm.footprint
            assert 1 <= fp.x and fp.x2 <= current.core_width
            assert 1 <= fp.y and fp.y2 <= current.core_height


class TestFlowOverRandomAssays:
    @given(ops=st.integers(3, 14), seed=st.integers(0, 500))
    @settings(max_examples=12, deadline=None)
    def test_flow_places_arbitrary_assays(self, ops, seed):
        graph = random_assay(operations=ops, seed=seed)
        flow = SynthesisFlow(
            placer=SimulatedAnnealingPlacer(
                params=AnnealingParams(
                    initial_temp=200.0,
                    cooling=0.7,
                    iterations_per_module=15,
                    freeze_rounds=2,
                    window_gamma=0.4,
                ),
                seed=seed,
            ),
            max_concurrent_ops=3,
        )
        result = flow.run(graph)
        result.placement_result.placement.validate()
        result.schedule.validate_precedence(graph)
        assert result.fti is not None and 0.0 <= result.fti <= 1.0

    def test_flow_without_fti(self):
        # The place stage skips the FTI report on request, as the routing
        # benchmark builds it; the placement and chip are still made.
        graph = random_assay(operations=6, seed=9)
        placer = SimulatedAnnealingPlacer(params=AnnealingParams.fast(), seed=1)
        context = SynthesisContext(graph=graph)
        BindStage().run(context)
        ScheduleStage().run(context)
        PlaceStage(placer, compute_fti_report=False).run(context)
        assert context.fti_report is None
        context.placement_result.placement.validate()
        assert context.chip is not None


class TestSimulatorContracts:
    def test_realized_never_beats_nominal(self, pcr):
        placer = SimulatedAnnealingPlacer(params=AnnealingParams.fast(), seed=2)
        placement = placer.place(pcr.schedule, pcr.binding).placement
        sim = BiochipSimulator(pcr.graph, pcr.schedule, pcr.binding, placement, Chip.of(placement))
        report = sim.run()
        assert report.completed
        for op_id, finish in report.realized_finish.items():
            assert finish >= pcr.schedule.stop(op_id) - 1e-9

    @pytest.mark.parametrize("fault_time", [2.0, 8.0, 12.0])
    def test_any_single_module_fault_recovers(self, pcr, fault_time):
        """With margin around the array, a single fault at any of these
        times is survivable and the product is always complete."""
        placer = SimulatedAnnealingPlacer(params=AnnealingParams.fast(), seed=2)
        placement = placer.place(pcr.schedule, pcr.binding).placement
        sim = BiochipSimulator(pcr.graph, pcr.schedule, pcr.binding, placement, Chip.of(placement))
        active = [
            pm for pm in sim.placement
            if pm.start <= fault_time < pm.stop
        ]
        target = sorted(active, key=lambda pm: pm.op_id)[0]
        cell = next(iter(target.functional_region.cells()))
        report = sim.run(faults=[(fault_time, cell)])
        assert report.completed
        assert len(report.product.reagents) == 8


class TestFaultStoryConsistency:
    def test_fti_equals_per_cell_reconfiguration(self, sa_result):
        """compute_fti's covered set and the reconfigurer must agree on
        every single cell (exhaustive, not sampled)."""
        from repro.fault.reconfigure import PartialReconfigurer
        from repro.util.errors import ReconfigurationError

        placement = sa_result.placement
        report = compute_fti(placement)
        engine = PartialReconfigurer()
        for y in range(1, report.height + 1):
            for x in range(1, report.width + 1):
                try:
                    engine.apply(placement, (x, y))
                    survived = True
                except ReconfigurationError:
                    survived = False
                assert survived == report.is_covered((x, y)), (x, y)

    def test_two_placements_ranked_consistently(self, pcr):
        """If placement A has higher FTI than B, A's Monte-Carlo
        survival should not be materially worse."""
        from repro.fault.tolerance import ToleranceAnalyzer
        from repro.placement.two_stage import TwoStagePlacer

        def survival(placement) -> float:
            return ToleranceAnalyzer().multi_fault_survival(
                placement, trials=150, max_faults=1, seed=3
            ).survival_probability(1)

        min_area = SimulatedAnnealingPlacer(
            params=AnnealingParams.fast(), seed=2
        ).place(pcr.schedule, pcr.binding).placement
        aware = TwoStagePlacer(
            beta=40.0, stage1_params=AnnealingParams.fast(), seed=7
        ).place(pcr.schedule, pcr.binding).placement
        fti_a = compute_fti(aware).fti
        fti_b = compute_fti(min_area).fti
        if fti_a > fti_b + 0.1:
            assert survival(aware) > survival(min_area) - 0.1


class TestScheduleCapacityInteraction:
    @given(cap_cells=st.sampled_from([54, 63, 80, 120]))
    @settings(max_examples=8, deadline=None)
    def test_tighter_capacity_never_shortens_makespan(self, pcr, cap_cells):
        footprints = {op: spec.footprint_area for op, spec in pcr.binding.items()}
        constrained = list_schedule(
            pcr.graph, pcr.binding.durations(),
            cell_capacity=cap_cells, footprints=footprints,
        )
        assert constrained.makespan >= 19.0 - 1e-9
        assert constrained.peak_cell_demand(footprints) <= cap_cells
