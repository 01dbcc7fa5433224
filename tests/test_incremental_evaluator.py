"""Tests for the incremental delta-cost evaluator and annealing path.

The contract under test: for any placement and any legal move sequence,
the evaluator's running components track a full recomputation within
float tolerance, every delta equals the full-cost difference, and
apply -> revert restores the exact prior state. The hypothesis section
drives that contract over random schedules and random move sequences;
the cross-check section drives the real annealer over every bundled
assay with per-move verification (the :class:`oracles.CheckedCost`
wrapper).
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import CheckedCost, CheckedTwoStagePlacer, FullRecomputeCost

from repro.assay.catalog import BUNDLED_ASSAYS
from repro.modules.kinds import ModuleKind
from repro.modules.module import ModuleSpec
from repro.pipeline.context import SynthesisContext
from repro.pipeline.stages import BindStage, ScheduleStage
from repro.placement.annealer import AnnealingParams, SimulatedAnnealing
from repro.placement.cost import AreaCost, FaultAwareCost
from repro.placement.greedy import build_placed_modules
from repro.placement.incremental import (
    IncrementalCostEvaluator,
    Move,
    ModuleUpdate,
    apply_move,
)
from repro.placement.model import PlacedModule, Placement
from repro.placement.sa_placer import SimulatedAnnealingPlacer
from repro.placement.transport import TransportAwareCost
from repro.util.errors import CrossCheckError, PlacementError

TOL = 1e-6


def make_spec(fw: int, fh: int) -> ModuleSpec:
    return ModuleSpec(
        name=f"mix-{fw}x{fh}",
        kind=ModuleKind.MIXER,
        functional_width=fw,
        functional_height=fh,
        duration_s=5.0,
    )


SPECS = [make_spec(1, 1), make_spec(1, 2), make_spec(2, 2), make_spec(2, 3)]


def build_placement(layout, core=16) -> Placement:
    """layout: list of (op, spec_idx, x, y, start, stop, rotated)."""
    p = Placement(core, core)
    for op, spec_idx, x, y, start, stop, rotated in layout:
        p.add(PlacedModule(
            op_id=op, spec=SPECS[spec_idx], x=x, y=y,
            start=start, stop=stop, rotated=rotated,
        ))
    return p


def legal_update(placement: Placement, op: str, x: int, y: int, rotated: bool):
    pm = placement.get(op)
    if rotated and pm.spec.is_square:
        rotated = False
    w, h = pm.spec.dims(rotated)
    x = max(1, min(x, placement.core_width - w + 1))
    y = max(1, min(y, placement.core_height - h + 1))
    return ModuleUpdate(op, x, y, rotated)


class TestEvaluatorBasics:
    def layout(self):
        return [
            ("a", 2, 1, 1, 0.0, 10.0, False),
            ("b", 2, 3, 3, 5.0, 15.0, False),   # overlaps a in space+time
            ("c", 1, 9, 9, 0.0, 10.0, False),
            ("d", 3, 1, 9, 20.0, 30.0, False),  # time-disjoint from all
        ]

    def test_initial_components_match_placement(self):
        p = build_placement(self.layout())
        ev = IncrementalCostEvaluator(p)
        assert ev.overlap_total == pytest.approx(p.overlap_volume())
        assert ev.conflict_pairs == len(p.conflicting_pairs())
        bb = p.bounding_box()
        assert ev.bounding_box() == (bb.x, bb.y, bb.x2, bb.y2)
        assert ev.area_cells == p.area_cells
        assert ev.pull_sum == sum(
            pm.footprint.x2 + pm.footprint.y2 for pm in p
        )

    def test_empty_placement_rejected(self):
        with pytest.raises(PlacementError):
            IncrementalCostEvaluator(Placement(8, 8))

    def test_unknown_op_rejected(self):
        p = build_placement(self.layout())
        ev = IncrementalCostEvaluator(p)
        with pytest.raises(PlacementError):
            ev.delta_components(Move(updates=(ModuleUpdate("ghost", 1, 1, False),)))

    def test_duplicate_update_rejected(self):
        p = build_placement(self.layout())
        ev = IncrementalCostEvaluator(p)
        move = Move(updates=(
            ModuleUpdate("a", 1, 1, False), ModuleUpdate("a", 2, 2, False),
        ))
        with pytest.raises(PlacementError):
            ev.delta_components(move)

    def test_empty_move_rejected(self):
        with pytest.raises(ValueError):
            Move(updates=())

    def test_out_of_core_apply_rejected_and_state_intact(self):
        p = build_placement(self.layout())
        ev = IncrementalCostEvaluator(p)
        with pytest.raises(PlacementError):
            ev.apply(Move(updates=(ModuleUpdate("a", 15, 15, False),)))
        ev.check_consistency()

    def test_delta_matches_full_recompute_displace(self):
        p = build_placement(self.layout())
        ev = IncrementalCostEvaluator(p)
        cost = AreaCost()
        move = Move(updates=(legal_update(p, "a", 6, 6, False),))
        before = cost(p)
        delta = cost.delta(ev, move)
        assert delta == pytest.approx(cost(apply_move(p, move)) - before, abs=TOL)

    def test_delta_matches_full_recompute_swap(self):
        p = build_placement(self.layout())
        ev = IncrementalCostEvaluator(p)
        cost = AreaCost()
        move = Move(updates=(
            legal_update(p, "a", 3, 3, False),
            legal_update(p, "b", 1, 1, True),
        ))
        before = cost(p)
        delta = cost.delta(ev, move)
        assert delta == pytest.approx(cost(apply_move(p, move)) - before, abs=TOL)

    def test_apply_then_revert_is_exact(self):
        p = build_placement(self.layout())
        ev = IncrementalCostEvaluator(p)
        cost = AreaCost()
        before_cost = cost.current(ev)
        before_bbox = ev.bounding_box()
        before_state = {pm.op_id: (pm.x, pm.y, pm.rotated) for pm in p}

        move = Move(updates=(legal_update(p, "b", 7, 2, False),))
        inverse = ev.apply(move)
        ev.apply(inverse)
        ev.resync()
        assert cost.current(ev) == pytest.approx(before_cost, abs=TOL)
        assert ev.bounding_box() == before_bbox
        assert {pm.op_id: (pm.x, pm.y, pm.rotated) for pm in p} == before_state
        ev.check_consistency()

    def test_resync_reports_drift(self):
        p = build_placement(self.layout())
        ev = IncrementalCostEvaluator(p)
        rng = random.Random(0)
        for _ in range(50):
            op = rng.choice(p.op_ids())
            move = Move(updates=(legal_update(
                p, op, rng.randint(1, 16), rng.randint(1, 16), bool(rng.getrandbits(1))
            ),))
            ev.apply(move)
        drift = ev.resync()
        assert drift <= TOL
        ev.check_consistency()

    def test_auto_resync_cadence(self):
        p = build_placement(self.layout())
        ev = IncrementalCostEvaluator(p, resync_every=5)
        rng = random.Random(1)
        for _ in range(23):
            op = rng.choice(p.op_ids())
            ev.apply(Move(updates=(legal_update(
                p, op, rng.randint(1, 16), rng.randint(1, 16), False
            ),)))
        # 23 applies with cadence 5 -> 4 auto-resyncs, 3 applies since.
        assert ev._applies_since_resync == 3

    def test_signature_translation_invariant(self):
        layout = self.layout()
        p1 = build_placement(layout)
        shifted = [(op, s, x + 2, y + 1, a, b, r) for op, s, x, y, a, b, r in layout]
        p2 = build_placement(shifted)
        assert (IncrementalCostEvaluator(p1).signature()
                == IncrementalCostEvaluator(p2).signature())

    def test_candidate_signature_matches_applied_signature(self):
        p = build_placement(self.layout())
        ev = IncrementalCostEvaluator(p)
        move = Move(updates=(legal_update(p, "c", 2, 2, False),))
        predicted = ev.candidate_signature(move)
        ev.apply(move)
        assert ev.signature() == predicted


class TestCostProtocols:
    def test_supports_incremental_standard_costs(self):
        graph, _ = BUNDLED_ASSAYS["pcr"]()
        assert AreaCost().supports_incremental()
        assert FaultAwareCost(beta=30).supports_incremental()
        assert TransportAwareCost(graph).supports_incremental()

    def test_call_override_without_delta_falls_back(self):
        class Custom(AreaCost):
            def __call__(self, placement):
                return super().__call__(placement) + 1.0

        assert not Custom().supports_incremental()
        placer = SimulatedAnnealingPlacer(cost=Custom())
        assert not placer.uses_incremental()

    def test_incremental_disabled_by_flag(self):
        """The cost's ``supports_incremental()`` flag alone picks the
        path: the full-recompute oracle clears it."""
        placer = SimulatedAnnealingPlacer(cost=FullRecomputeCost(AreaCost()))
        assert not placer.uses_incremental()


    def test_cross_check_without_incremental_rejected(self):
        """Per-move verification is never silently a no-op: a cost that
        anneals on the full-recompute path has no delta to check."""

        class Custom(AreaCost):
            def __call__(self, placement):
                return super().__call__(placement) + 1.0

        with pytest.raises(ValueError, match="no delta"):
            CheckedCost(Custom())

    def test_checked_cost_catches_a_wrong_delta(self):
        class Skewed(AreaCost):
            def delta(self, evaluator, move):
                return super().delta(evaluator, move) + 0.5

        graph, binding = BUNDLED_ASSAYS["pcr"]()
        context = SynthesisContext(graph=graph, explicit_binding=binding)
        BindStage().run(context)
        ScheduleStage().run(context)
        placer = SimulatedAnnealingPlacer(
            params=AnnealingParams.fast(), seed=1, cost=CheckedCost(Skewed())
        )
        with pytest.raises(CrossCheckError, match="disagrees with full recompute"):
            placer.place(context.schedule, context.binding)

    def test_fault_aware_delta_matches_full(self):
        p = build_placement([
            ("a", 2, 1, 1, 0.0, 10.0, False),
            ("b", 2, 6, 1, 0.0, 10.0, False),
            ("c", 1, 1, 6, 0.0, 10.0, False),
        ], core=12)
        ev = IncrementalCostEvaluator(p)
        cost = FaultAwareCost(beta=20.0)
        for target in [(10, 10), (2, 2), (6, 6)]:
            move = Move(updates=(legal_update(p, "c", *target, False),))
            expected = cost(apply_move(p, move)) - cost(p)
            assert cost.delta(ev, move) == pytest.approx(expected, abs=TOL)

    def test_fault_aware_fti_is_memoized(self):
        p = build_placement([
            ("a", 2, 1, 1, 0.0, 10.0, False),
            ("b", 2, 6, 1, 0.0, 10.0, False),
        ], core=12)
        ev = IncrementalCostEvaluator(p)
        cost = FaultAwareCost(beta=20.0)
        calls = 0
        original = cost.fti_report

        def counting(placement):
            nonlocal calls
            calls += 1
            return original(placement)

        cost.fti_report = counting
        move = Move(updates=(legal_update(p, "a", 1, 1, False),))
        cost.delta(ev, move)
        first = calls
        cost.delta(ev, move)  # same current and candidate signatures
        assert calls == first

    def test_transport_delta_matches_full(self):
        graph, binding = BUNDLED_ASSAYS["pcr"]()
        context = SynthesisContext(graph=graph, explicit_binding=binding)
        BindStage().run(context)
        ScheduleStage().run(context)
        mods = build_placed_modules(context.schedule, context.binding)
        p = Placement(20, 20)
        rng = random.Random(3)
        for pm in mods:
            w, h = pm.spec.dims(False)
            p.add(pm.moved_to(rng.randint(1, 20 - w + 1), rng.randint(1, 20 - h + 1)))
        ev = IncrementalCostEvaluator(p)
        cost = TransportAwareCost(graph)
        ops = p.op_ids()
        for i in range(6):
            op = ops[i % len(ops)]
            move = Move(updates=(legal_update(
                p, op, rng.randint(1, 20), rng.randint(1, 20), bool(i % 2)
            ),))
            expected = cost(apply_move(p, move)) - cost(p)
            assert cost.delta(ev, move) == pytest.approx(expected, abs=TOL)


class TestIncrementalEngine:
    def place(self, **kwargs):
        graph, binding = BUNDLED_ASSAYS["pcr"]()
        context = SynthesisContext(graph=graph, explicit_binding=binding)
        BindStage().run(context)
        ScheduleStage().run(context)
        placer = SimulatedAnnealingPlacer(
            params=AnnealingParams.fast(), seed=9, **kwargs
        )
        return placer.place(context.schedule, context.binding)

    def test_matches_full_path_exactly(self):
        """Same seed => same trajectory, same best snapshot, both paths.

        The generator consumes identical RNG draws either way and the
        best-snapshot decision is confirmed with exact arithmetic, so on
        the (integer-valued) bundled schedules the two paths agree
        bit-for-bit, not just in area.
        """
        inc = self.place()
        full = self.place(cost=FullRecomputeCost(AreaCost()))
        assert {m.op_id: (m.x, m.y, m.rotated) for m in inc.placement} == {
            m.op_id: (m.x, m.y, m.rotated) for m in full.placement
        }
        assert inc.stats.best_cost == pytest.approx(full.stats.best_cost, abs=1e-9)
        assert inc.stats.improvements == full.stats.improvements
        assert inc.stats.acceptances == full.stats.acceptances
        inc.placement.validate()

    def test_record_history_opt_out(self):
        assert self.place(record_history=True).stats.history
        assert not self.place(record_history=False).stats.history
        # History is bookkeeping only: the trajectory is unaffected.
        assert (self.place(record_history=True).area_cells
                == self.place(record_history=False).area_cells)

    def test_generic_engine_record_history_opt_out(self):
        rng = random.Random(0)
        engine = SimulatedAnnealing(
            AnnealingParams(initial_temp=10.0, cooling=0.5,
                            iterations_per_module=1, max_rounds=3),
            seed=0,
        )
        _, stats = engine.optimize(
            5.0, lambda x: x * x, lambda x, t: x + rng.gauss(0, 1), 10,
            record_history=False,
        )
        assert stats.rounds == 3 and not stats.history


@pytest.mark.parametrize("assay", sorted(BUNDLED_ASSAYS))
def test_cross_check_all_bundled_assays(assay):
    """Acceptance bar: per-move |delta - full| < 1e-6 on every assay."""
    graph, binding = BUNDLED_ASSAYS[assay]()
    context = SynthesisContext(graph=graph, explicit_binding=binding)
    BindStage().run(context)
    ScheduleStage().run(context)
    params = AnnealingParams(
        initial_temp=500.0, cooling=0.8, iterations_per_module=12,
        freeze_rounds=2, window_gamma=0.37, max_rounds=6,
    )
    placer = SimulatedAnnealingPlacer(params=params, seed=13, cost=CheckedCost(AreaCost()))
    result = placer.place(context.schedule, context.binding)
    result.placement.validate()


def test_cross_check_two_stage_pcr():
    """The fault-aware LTSA deltas verify against the full FTI cost."""
    graph, binding = BUNDLED_ASSAYS["pcr"]()
    context = SynthesisContext(graph=graph, explicit_binding=binding)
    BindStage().run(context)
    ScheduleStage().run(context)
    params = AnnealingParams(
        initial_temp=200.0, cooling=0.8, iterations_per_module=8,
        freeze_rounds=2, window_gamma=0.37, max_rounds=4,
    )
    placer = CheckedTwoStagePlacer(
        stage1_params=params, stage2_params=params, seed=13
    )
    result = placer.place(context.schedule, context.binding)
    result.placement.validate()


# ---------------------------------------------------------------------------
# hypothesis: random schedules, random move sequences
# ---------------------------------------------------------------------------

module_st = st.tuples(
    st.integers(min_value=0, max_value=len(SPECS) - 1),
    st.integers(min_value=1, max_value=12),   # x
    st.integers(min_value=1, max_value=12),   # y
    st.integers(min_value=0, max_value=30),   # start
    st.integers(min_value=1, max_value=20),   # duration
    st.booleans(),                            # rotated
    st.booleans(),                            # half-second start offset
)

moves_st = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=10 ** 6),  # module selector
        st.integers(min_value=1, max_value=16),       # x
        st.integers(min_value=1, max_value=16),       # y
        st.booleans(),                                # rotated
        st.booleans(),                                # make it a swap
    ),
    min_size=1,
    max_size=30,
)


def placement_from_draw(draw_modules) -> Placement:
    core = 16
    p = Placement(core, core)
    for i, (spec_idx, x, y, start, duration, rotated, half) in enumerate(draw_modules):
        spec = SPECS[spec_idx]
        rot = rotated and not spec.is_square
        w, h = spec.dims(rot)
        start_t = start + (0.5 if half else 0.0)
        p.add(PlacedModule(
            op_id=f"m{i}",
            spec=spec,
            x=min(x, core - w + 1),
            y=min(y, core - h + 1),
            start=start_t,
            stop=start_t + duration,
            rotated=rot,
        ))
    return p


@settings(max_examples=30, deadline=None)
@given(
    modules=st.lists(module_st, min_size=2, max_size=7),
    moves=moves_st,
)
def test_incremental_tracks_full_recompute(modules, moves):
    """Running cost tracks full recomputation; apply/revert is exact."""
    placement = placement_from_draw(modules)
    ev = IncrementalCostEvaluator(placement, resync_every=10 ** 9)
    cost = AreaCost()
    running = cost.current(ev)
    assert running == pytest.approx(cost(placement), abs=TOL)

    ops = placement.op_ids()
    for selector, x, y, rotated, swap in moves:
        op = ops[selector % len(ops)]
        updates = [legal_update(placement, op, x, y, rotated)]
        if swap and len(ops) >= 2:
            other = ops[(selector // len(ops)) % len(ops)]
            if other != op:
                pm = placement.get(op)
                updates.append(legal_update(placement, other, pm.x, pm.y, False))
        move = Move(updates=tuple(updates))

        before_full = cost(placement)
        before_bbox = ev.bounding_box()
        before_pull = ev.pull_sum
        delta = cost.delta(ev, move)

        inverse = ev.apply(move)
        after_full = cost(placement)
        # 1. the delta prices the move exactly (within float tolerance)
        assert delta == pytest.approx(after_full - before_full, abs=TOL)
        # 2. the running components track the full recompute
        ev.check_consistency(TOL)
        running += delta
        assert running == pytest.approx(cost.current(ev), abs=TOL)

        # 3. apply -> revert restores the exact prior cost and bbox
        ev.apply(inverse)
        assert ev.bounding_box() == before_bbox
        assert ev.pull_sum == before_pull
        assert cost(placement) == pytest.approx(before_full, abs=TOL)
        ev.check_consistency(TOL)

        # leave the move applied for the next iteration
        ev.apply(move)
        running = cost.current(ev)
