"""Tests for the incremental delta-cost evaluator and annealing path.

The contract under test: for any placement and any legal move sequence,
the evaluator's running components track a full recomputation within
float tolerance, every delta equals the full-cost difference, and
apply -> revert restores the exact prior state. The hypothesis section
drives that contract over random schedules and random move sequences;
the cross-check section drives the real annealer over every bundled
assay with per-move verification (the :class:`oracles.CheckedCost`
wrapper).

For a cost whose ``delta`` is ``AreaCost.delta`` the annealer draws,
prices, decides and applies each proposal in one compiled round
(``IncrementalCostEvaluator.bind_round``, over ``_anneal.c``); any
other cost, and an ``AreaCost`` whose generators are not exactly
``random.Random``, goes through ``propose -> delta -> Metropolis ->
apply``. The two must be the same anneal bit for bit.
:class:`GenericAreaCost` — ``AreaCost`` with a ``delta`` override that
calls ``AreaCost.delta`` — takes the generic body with the compiled
round's objective, so running one schedule under both costs compares
the two bodies directly: step by step (rounds of one step) in
``TestCostProtocols.test_bound_price_equals_delta_bit_for_bit`` and per
anneal in the compiled-round section, which also runs the golden
``AreaCost`` pins on :class:`SubclassedRandom` generators, which the
compiled round declines.
"""

import math
import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    CheckedCost,
    CheckedTwoStagePlacer,
    FullRecomputeAnnealing,
    FullRecomputePlacer,
    check_consistency,
)

from repro import kernels
from repro.assay.catalog import BUNDLED_ASSAYS
from repro.modules.kinds import ModuleKind
from repro.modules.module import ModuleSpec
from repro.pipeline.context import SynthesisContext
from repro.pipeline.stages import BindStage, ScheduleStage
from repro.placement import sa_placer, two_stage
from repro.placement.annealer import AnnealingParams, SimulatedAnnealing, _bind_round
from repro.placement.cost import AreaCost, FaultAwareCost, require_delta
from repro.placement.greedy import build_placed_modules
from repro.placement.incremental import IncrementalCostEvaluator
from repro.placement.model import PlacedModule, Placement
from repro.placement.moves import MoveGenerator
from repro.placement.sa_placer import SimulatedAnnealingPlacer
from repro.placement.transport import TransportAwareCost
from repro.placement.window import ControllingWindow
from repro.recovery.engine import FaultAvoidanceCost
from repro.util.errors import CrossCheckError, KernelBuildError, PlacementError
from test_anneal_golden import PINS, run_case

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
    """An in-core ``(op, x, y, rotated)`` update near the requested one."""
    pm = placement.get(op)
    if rotated and pm.spec.is_square:
        rotated = False
    w, h = pm.spec.dims(rotated)
    x = max(1, min(x, placement.core_width - w + 1))
    y = max(1, min(y, placement.core_height - h + 1))
    return (op, x, y, rotated)


def index_move(ev: IncrementalCostEvaluator, *updates) -> tuple:
    """The evaluator's move tuple for one or two ``(op, x, y, rotated)``
    updates."""
    out: list = []
    for op, x, y, rotated in updates:
        out += (ev.index[op], x, y, bool(rotated))
    return tuple(out)


def applied(placement: Placement, *updates) -> Placement:
    """A copy of *placement* with the ``(op, x, y, rotated)`` updates
    applied: the full-recompute side of every delta check."""
    out = placement.copy()
    for op, x, y, rotated in updates:
        out.replace(out.get(op).moved_to(x, y, rotated=rotated))
    return out


class GenericAreaCost(AreaCost):
    """``AreaCost`` priced by an override of ``delta``: the annealer
    runs it through the generic body."""

    def delta(self, evaluator, move):
        return super().delta(evaluator, move)


class SubclassedRandom(random.Random):
    """Draws exactly as ``random.Random`` does, but is not it: an
    ``AreaCost`` anneal on it takes the generic body."""


#: Module counts that reach each branch of the compiled round: one
#: module (every box edge is the moved module's), two (a pair
#: interchange with no third module), three, and ``sample``'s pool
#: branch (up to 21 candidates) and set branch (above).
ROUND_SIZES = [1, 2, 3, 21, 22, 40]
CORE = 16


@st.composite
def layouts(draw):
    """A ``build_placement`` layout of n in ``ROUND_SIZES`` modules in a
    ``CORE``-square core: in-core origins, and spans in tenths of a
    second, so the overlap sums round and a reordered float sum shows."""
    layout = []
    for k in range(draw(st.sampled_from(ROUND_SIZES))):
        spec_idx = draw(st.integers(0, len(SPECS) - 1))
        rotated = draw(st.booleans()) and not SPECS[spec_idx].is_square
        w, h = SPECS[spec_idx].dims(rotated)
        start = draw(st.integers(0, 30)) / 10
        layout.append((
            f"m{k}", spec_idx,
            draw(st.integers(1, CORE - w + 1)), draw(st.integers(1, CORE - h + 1)),
            start, start + draw(st.integers(1, 40)) / 10, rotated,
        ))
    return layout


#: How the move generator and the Metropolis test draw: one shared
#: ``random.Random`` (as ``SimulatedAnnealingPlacer`` runs them), two
#: distinct ones, or a subclass (which the compiled round declines).
STREAMS = st.sampled_from(["shared", "distinct", "subclass"])


def streams(kind: str, seed: int) -> tuple[random.Random, random.Random]:
    """``(mover_rng, accept_rng)`` for a ``STREAMS`` kind."""
    if kind == "distinct":
        return random.Random(seed), random.Random(seed + 1)
    rng = (SubclassedRandom if kind == "subclass" else random.Random)(seed)
    return rng, rng


def movable_subset(layout, mask):
    """The op ids *mask* keeps (at least one), as in the recovery warm
    start; ``None`` (every module) for an all-True mask."""
    ops = [row[0] for row in layout]
    if all(mask[k % len(mask)] for k in range(len(ops))):
        return None
    return [op for k, op in enumerate(ops) if mask[k % len(mask)]] or ops[:1]


def evaluator_state(ev: IncrementalCostEvaluator) -> tuple:
    """Every record, histogram, running sum and counter an apply writes."""
    return (
        ev.x1, ev.y1, ev.x2, ev.y2, ev.rot,
        ev._cx1, ev._cy1, ev._cx2, ev._cy2, ev.bounding_box(),
        ev.overlap_total, ev.conflict_pairs, ev.pull_sum, ev._applies_since_resync,
    )


def is_compiled(run) -> bool:
    """True for the evaluator's compiled round, False for the generic body."""
    return run.__qualname__.startswith(IncrementalCostEvaluator.bind_round.__qualname__)


def bound_rounds(layout, cost, seed, resync_every, kind="shared", movable=None):
    """``(run, evaluator, rngs)``: the annealer's round for *cost* over
    a fresh evaluator, with the move generator and the Metropolis test
    drawing from the ``streams(kind, seed)`` generators."""
    mover_rng, accept_rng = streams(kind, seed)
    ev = IncrementalCostEvaluator(build_placement(layout, core=CORE), resync_every=resync_every)
    window = ControllingWindow(initial_temp=100.0, max_span=CORE)
    mover = MoveGenerator(window=window, seed=mover_rng, movable=movable)
    return _bind_round(ev, cost, mover, accept_rng), ev, (mover_rng, accept_rng)


STEP_SPANS = st.lists(st.integers(0, CORE), min_size=1, max_size=8)
STEP_TEMPERATURES = st.lists(st.sampled_from([0.05, 1.0, 30.0]), min_size=1, max_size=8)


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

    def test_duplicate_update_rejected(self):
        p = build_placement(self.layout())
        ev = IncrementalCostEvaluator(p)
        with pytest.raises(PlacementError):
            ev.components((0, 1, 1, False, 0, 2, 2, False))

    def test_empty_move_rejected(self):
        ev = IncrementalCostEvaluator(build_placement(self.layout()))
        with pytest.raises(ValueError):
            ev.components(())

    def test_out_of_core_apply_rejected_and_state_intact(self):
        p = build_placement(self.layout())
        ev = IncrementalCostEvaluator(p)
        with pytest.raises(PlacementError):
            ev.apply(index_move(ev, ("a", 15, 15, False)))
        check_consistency(ev)

    def test_delta_matches_full_recompute_displace(self):
        p = build_placement(self.layout())
        ev = IncrementalCostEvaluator(p)
        cost = AreaCost()
        update = legal_update(p, "a", 6, 6, False)
        before = cost(p)
        delta = cost.delta(ev, index_move(ev, update))
        assert delta == pytest.approx(cost(applied(p, update)) - before, abs=TOL)

    def test_delta_matches_full_recompute_swap(self):
        p = build_placement(self.layout())
        ev = IncrementalCostEvaluator(p)
        cost = AreaCost()
        updates = (
            legal_update(p, "a", 3, 3, False),
            legal_update(p, "b", 1, 1, True),
        )
        before = cost(p)
        delta = cost.delta(ev, index_move(ev, *updates))
        assert delta == pytest.approx(cost(applied(p, *updates)) - before, abs=TOL)

    def test_apply_then_revert_is_exact(self):
        p = build_placement(self.layout())
        ev = IncrementalCostEvaluator(p)
        cost = AreaCost()
        before_cost = cost.current(ev)
        before_bbox = ev.bounding_box()
        before_state = {pm.op_id: (pm.x, pm.y, pm.rotated) for pm in p}

        inverse = ev.apply(index_move(ev, legal_update(p, "b", 7, 2, False)))
        assert ev.placement.get("b").x == 7
        ev.apply(inverse)
        ev.resync()
        assert cost.current(ev) == pytest.approx(before_cost, abs=TOL)
        assert ev.bounding_box() == before_bbox
        # The owned placement is brought up to date when read.
        assert ev.placement is p
        assert {pm.op_id: (pm.x, pm.y, pm.rotated) for pm in p} == before_state
        check_consistency(ev)

    def test_resync_reports_drift(self):
        p = build_placement(self.layout())
        ev = IncrementalCostEvaluator(p)
        rng = random.Random(0)
        for _ in range(50):
            op = rng.choice(p.op_ids())
            ev.apply(index_move(ev, legal_update(
                p, op, rng.randint(1, 16), rng.randint(1, 16), bool(rng.getrandbits(1))
            )))
        drift = ev.resync()
        assert drift <= TOL
        check_consistency(ev)

    def test_auto_resync_cadence(self):
        p = build_placement(self.layout())
        ev = IncrementalCostEvaluator(p, resync_every=5)
        rng = random.Random(1)
        for _ in range(23):
            op = rng.choice(p.op_ids())
            ev.apply(index_move(ev, legal_update(
                p, op, rng.randint(1, 16), rng.randint(1, 16), False
            )))
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
        move = index_move(ev, legal_update(p, "c", 2, 2, False))
        predicted = ev.candidate_signature(move)
        ev.apply(move)
        assert ev.signature() == predicted


class TestCostProtocols:
    def test_supports_incremental_standard_costs(self):
        """Every cost in the library speaks the delta protocol, so a
        placer accepts it."""
        graph, _ = BUNDLED_ASSAYS["pcr"]()
        for cost in (
            AreaCost(),
            FaultAwareCost(beta=30),
            TransportAwareCost(graph),
            FaultAvoidanceCost([(2, 2)]),
        ):
            require_delta(cost)
            assert SimulatedAnnealingPlacer(cost=cost).cost is cost

    def test_call_override_without_delta_rejected(self):
        """A cost that changes the objective without a matching delta
        would be optimized by the wrong delta: building a placer with
        it fails instead."""

        class Custom(AreaCost):
            def __call__(self, placement):
                return super().__call__(placement) + 1.0

        with pytest.raises(TypeError, match="no delta"):
            SimulatedAnnealingPlacer(cost=Custom())

    def test_cost_without_delta_protocol_rejected(self):
        """A plain cost callable has no delta protocol at all."""
        with pytest.raises(TypeError, match="no delta"):
            SimulatedAnnealingPlacer(cost=lambda placement: placement.area_mm2)

        class Stage2WithoutDelta(CheckedTwoStagePlacer):
            def stage2_cost(self):
                return lambda placement: placement.area_mm2

        graph, binding = BUNDLED_ASSAYS["pcr"]()
        context = SynthesisContext(graph=graph, explicit_binding=binding)
        BindStage().run(context)
        ScheduleStage().run(context)
        fast = AnnealingParams.fast()
        placer = Stage2WithoutDelta(stage1_params=fast, stage2_params=fast, seed=1)
        with pytest.raises(TypeError, match="no delta"):
            placer.place(context.schedule, context.binding)


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

    def test_delta_override_prices_every_proposal(self):
        """Binding resolves pricing once per anneal, but a subclass that
        overrides ``delta`` is still priced by its override: called once
        per proposal, on the trajectory the unbound delta walks."""
        calls = 0

        class Counting(AreaCost):
            def delta(self, evaluator, move):
                nonlocal calls
                calls += 1
                return super().delta(evaluator, move)

        graph, binding = BUNDLED_ASSAYS["pcr"]()
        context = SynthesisContext(graph=graph, explicit_binding=binding)
        BindStage().run(context)
        ScheduleStage().run(context)
        fast = AnnealingParams.fast()
        counted = SimulatedAnnealingPlacer(params=fast, seed=1, cost=Counting())
        result = counted.place(context.schedule, context.binding)
        assert calls == result.stats.evaluations > 0
        plain = SimulatedAnnealingPlacer(params=fast, seed=1).place(
            context.schedule, context.binding
        )
        def rows(r):
            return sorted((pm.op_id, pm.x, pm.y, pm.rotated) for pm in r.placement)

        assert rows(result) == rows(plain)
        assert result.stats.acceptances == plain.stats.acceptances

    @pytest.mark.parametrize("pull_weight", [0.0, 0.05])
    @settings(max_examples=40, deadline=None)
    @given(
        layout=layouts(),
        resync_every=st.sampled_from([1, 7, 2048]),
        seed=st.integers(0, 2**32),
        spans=STEP_SPANS,
        temperatures=STEP_TEMPERATURES,
        kind=STREAMS,
        mask=st.lists(st.booleans(), min_size=1, max_size=5),
    )
    def test_bound_price_equals_delta_bit_for_bit(
        self, pull_weight, layout, resync_every, seed, spans,
        temperatures, kind, mask,
    ):
        """The compiled round prices exactly as ``delta``, for single
        moves and pair interchanges alike. In rounds of one step beside
        the generic body, with no round-boundary resync to hide a
        difference, it returns the very float ``delta`` gives each
        accepted move and the same improvement flag, and leaves the
        evaluator exactly as ``apply`` does: records, edge histograms,
        box, running sums and the resync counter. The generators may be
        one or two; a ``random.Random`` subclass takes the generic body,
        with the same result. Moves may touch a ``movable`` subset."""
        movable = movable_subset(layout, mask)
        run, ev, rngs = bound_rounds(
            layout, AreaCost(pull_weight=pull_weight), seed, resync_every,
            kind, movable,
        )
        assert is_compiled(run) == (kind != "subclass")
        ref_run, ref, ref_rngs = bound_rounds(
            layout, GenericAreaCost(pull_weight=pull_weight), seed,
            resync_every, "distinct" if kind == "distinct" else "shared", movable,
        )
        assert not is_compiled(ref_run)
        for k in range(200):
            span = spans[k % len(spans)]
            temperature = temperatures[k % len(temperatures)]
            # From a zero running cost against a zero best, an accepted
            # move returns its delta and improves iff that is negative.
            assert run(span, temperature, 1, 0.0, 0.0) == ref_run(
                span, temperature, 1, 0.0, 0.0
            )
            assert evaluator_state(ev) == evaluator_state(ref)
        assert [r.getstate() for r in rngs] == [r.getstate() for r in ref_rngs]
        check_consistency(ev)

    def test_fault_aware_delta_matches_full(self):
        p = build_placement([
            ("a", 2, 1, 1, 0.0, 10.0, False),
            ("b", 2, 6, 1, 0.0, 10.0, False),
            ("c", 1, 1, 6, 0.0, 10.0, False),
        ], core=12)
        ev = IncrementalCostEvaluator(p)
        cost = FaultAwareCost(beta=20.0)
        for target in [(10, 10), (2, 2), (6, 6)]:
            update = legal_update(p, "c", *target, False)
            expected = cost(applied(p, update)) - cost(p)
            assert cost.delta(ev, index_move(ev, update)) == pytest.approx(expected, abs=TOL)

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
        move = index_move(ev, legal_update(p, "a", 1, 1, False))
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
            update = legal_update(
                p, op, rng.randint(1, 20), rng.randint(1, 20), bool(i % 2)
            )
            expected = cost(applied(p, update)) - cost(p)
            assert cost.delta(ev, index_move(ev, update)) == pytest.approx(expected, abs=TOL)


class TestIncrementalEngine:
    def place(self, placer_cls=SimulatedAnnealingPlacer, **kwargs):
        graph, binding = BUNDLED_ASSAYS["pcr"]()
        context = SynthesisContext(graph=graph, explicit_binding=binding)
        BindStage().run(context)
        ScheduleStage().run(context)
        placer = placer_cls(params=AnnealingParams.fast(), seed=9, **kwargs)
        return placer.place(context.schedule, context.binding)

    def test_matches_full_path_exactly(self):
        """Same seed => same trajectory, same best snapshot, both paths.

        The generator consumes identical RNG draws either way and the
        best-snapshot decision is confirmed with exact arithmetic, so on
        the (integer-valued) bundled schedules the two paths agree
        bit-for-bit, not just in area.
        """
        inc = self.place()
        full = self.place(FullRecomputePlacer)
        assert {m.op_id: (m.x, m.y, m.rotated) for m in inc.placement} == {
            m.op_id: (m.x, m.y, m.rotated) for m in full.placement
        }
        assert inc.stats.best_cost == pytest.approx(full.stats.best_cost, abs=1e-9)
        assert inc.stats.improvements == full.stats.improvements
        assert inc.stats.acceptances == full.stats.acceptances
        inc.placement.validate()

    def test_record_history_opt_out(self):
        class QuietPlacer(SimulatedAnnealingPlacer):
            """Anneals with history off, as the recovery engine does."""

            def _anneal(self, engine, mover, initial, inner_iterations):
                return engine.optimize_incremental(
                    IncrementalCostEvaluator(initial), self.cost, mover,
                    inner_iterations, record_history=False,
                )

        loud, quiet = self.place(), self.place(QuietPlacer)
        assert loud.stats.history
        assert not quiet.stats.history
        # History is bookkeeping only: the trajectory is unaffected.
        assert loud.area_cells == quiet.area_cells
        assert loud.stats.acceptances == quiet.stats.acceptances

    def test_generic_engine_record_history_opt_out(self):
        rng = random.Random(0)
        engine = FullRecomputeAnnealing(
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
        st.booleans(),                                # swap partner rotated
    ),
    min_size=1,
    max_size=30,
)

cell_st = st.tuples(
    st.integers(min_value=1, max_value=16), st.integers(min_value=1, max_value=16)
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


def assert_view_matches_records(ev: IncrementalCostEvaluator) -> None:
    """The lazily synced placement holds exactly the index records."""
    for i, op in enumerate(ev.ops):
        pm = ev.placement.get(op)
        assert (pm.x, pm.y, pm.rotated) == (ev.x1[i], ev.y1[i], ev.rot[i])
        fp = pm.footprint
        assert (fp.x2, fp.y2) == (ev.x2[i], ev.y2[i])


@settings(max_examples=30, deadline=None)
@given(
    modules=st.lists(module_st, min_size=2, max_size=7),
    moves=moves_st,
    movable_mask=st.lists(st.booleans(), min_size=7, max_size=7),
    faults=st.lists(cell_st, max_size=3),
    seed=st.integers(min_value=0, max_value=2 ** 16),
)
def test_incremental_tracks_full_recompute(modules, moves, movable_mask, faults, seed):
    """Running cost tracks full recomputation; apply/revert is exact.

    Moves touch only a ``movable`` subset; swaps may rotate either
    module; the fault-avoidance cost's deltas run under ``CheckedCost``
    (which verifies each against the full recompute by an apply/revert
    round trip). After every apply and revert the placement view equals
    the index records and ``check_consistency`` holds. A second phase
    drives the proposal kernel itself over the same ``movable`` subset.
    """
    placement = placement_from_draw(modules)
    ev = IncrementalCostEvaluator(placement, resync_every=10 ** 9)
    cost = AreaCost()
    running = cost.current(ev)
    assert running == pytest.approx(cost(placement), abs=TOL)

    ops = placement.op_ids()
    movable = [op for op, keep in zip(ops, movable_mask) if keep] or ops[:1]
    anchors = {op: (placement.get(op).x, placement.get(op).y) for op in movable}
    avoid = FaultAvoidanceCost(faults, anchors=anchors)
    checked = CheckedCost(avoid, tolerance=TOL)
    for selector, x, y, rotated, swap, rotated2 in moves:
        view = ev.placement
        op = movable[selector % len(movable)]
        updates = [legal_update(view, op, x, y, rotated)]
        if swap and len(movable) >= 2:
            other = movable[(selector // len(movable)) % len(movable)]
            if other != op:
                pm = view.get(op)
                updates.append(legal_update(view, other, pm.x, pm.y, rotated2))
        move = index_move(ev, *updates)

        before_full = cost(view)
        before_bbox = ev.bounding_box()
        before_pull = ev.pull_sum
        before_rows = {pm.op_id: (pm.x, pm.y, pm.rotated) for pm in view}
        delta = cost.delta(ev, move)
        # CheckedCost applies, verifies and reverts the move itself.
        checked.delta(ev, move)
        assert_view_matches_records(ev)

        inverse = ev.apply(move)
        after_full = cost(ev.placement)
        # 1. the delta prices the move exactly (within float tolerance)
        assert delta == pytest.approx(after_full - before_full, abs=TOL)
        # 2. the running components track the full recompute, and only
        #    movable modules moved
        check_consistency(ev, TOL)
        assert_view_matches_records(ev)
        assert all(
            (pm.x, pm.y, pm.rotated) == before_rows[pm.op_id]
            for pm in ev.placement if pm.op_id not in anchors
        )
        running += delta
        assert running == pytest.approx(cost.current(ev), abs=TOL)
        assert avoid.current(ev) == pytest.approx(avoid(ev.placement), abs=TOL)

        # 3. apply -> revert restores the exact prior cost, bbox and rows
        ev.apply(inverse)
        assert ev.bounding_box() == before_bbox
        assert ev.pull_sum == before_pull
        assert cost(ev.placement) == pytest.approx(before_full, abs=TOL)
        assert {pm.op_id: (pm.x, pm.y, pm.rotated) for pm in ev.placement} == before_rows
        check_consistency(ev, TOL)

        # leave the move applied for the next iteration
        ev.apply(move)
        running = cost.current(ev)

    # Phase 2: kernel proposals (swaps half the time).
    window = ControllingWindow(initial_temp=100.0, max_span=16)
    mover = MoveGenerator(window=window, p_single=0.5, movable=movable, seed=seed)
    propose = mover.bind(ev)
    indices = {ev.index[op] for op in movable}
    for _ in range(20):
        move = propose(window.span(100.0))
        assert set(move[::4]) <= indices
        checked.delta(ev, move)
        assert_view_matches_records(ev)
        inverse = ev.apply(move)
        check_consistency(ev, TOL)
        ev.apply(inverse)
        check_consistency(ev, TOL)
        ev.apply(move)
        assert_view_matches_records(ev)


# ---------------------------------------------------------------------------
# the compiled round against the generic body, per anneal
# ---------------------------------------------------------------------------


def anneal(layout, cost, params, seed, resync_every, kind="shared", movable=None):
    """One anneal as ``SimulatedAnnealingPlacer`` runs it, the engine
    and the move generator drawing from the ``streams(kind, seed)``
    generators (one shared stream by default, as the placer runs them)."""
    mover_rng, accept_rng = streams(kind, seed)
    window = params.make_window(max_span=CORE)
    mover = MoveGenerator(window=window, seed=mover_rng, movable=movable)
    engine = SimulatedAnnealing(params, seed=accept_rng)
    evaluator = IncrementalCostEvaluator(
        build_placement(layout, core=CORE), resync_every=resync_every
    )
    best, stats = engine.optimize_incremental(
        evaluator, cost, mover, params.iterations_per_module * len(layout)
    )
    return best, stats, (mover_rng, accept_rng)


def short_schedule(initial_temp: float) -> AnnealingParams:
    return AnnealingParams(
        initial_temp=initial_temp, cooling=0.5, iterations_per_module=6,
        freeze_rounds=1, max_rounds=5, window_gamma=0.3,
    )


def fixed_layout(n: int, seed: int) -> list:
    """n unrotated modules at seeded in-core origins and start times."""
    rng = random.Random(seed)
    layout = []
    for k in range(n):
        spec_idx = rng.randrange(len(SPECS))
        w, h = SPECS[spec_idx].dims()
        start = rng.randrange(30) / 10
        layout.append((f"m{k}", spec_idx, rng.randint(1, CORE - w + 1),
                       rng.randint(1, CORE - h + 1), start, start + 2.5, False))
    return layout


def pin_of(best, stats, rngs) -> tuple:
    """Everything an anneal leaves: best rows, history, counters, stop
    reason, best cost and the final random states."""
    return (
        sorted((pm.op_id, pm.x, pm.y, pm.rotated) for pm in best),
        stats.history,
        (stats.evaluations, stats.acceptances, stats.improvements),
        stats.stop_reason,
        stats.best_cost,
        [r.getstate() for r in rngs],
    )


@settings(max_examples=60, deadline=None)
@given(
    layout=layouts(),
    pull_weight=st.sampled_from([0.0, 0.05]),
    initial_temp=st.sampled_from([0.3, 20.0, 3000.0]),
    resync_every=st.sampled_from([1, 7, 2048]),
    seed=st.integers(0, 2**32),
    kind=STREAMS,
    mask=st.lists(st.booleans(), min_size=1, max_size=5),
)
def test_fused_anneal_matches_generic_body(
    layout, pull_weight, initial_temp, resync_every, seed, kind, mask
):
    """The same anneal through the compiled round and the generic body:
    identical best rows, history, counters, stop reason and final
    random states, for one or two generators and a ``movable`` subset.
    On a ``random.Random`` subclass the ``AreaCost`` anneal takes the
    generic body, with the same result."""
    params = short_schedule(initial_temp)
    movable = movable_subset(layout, mask)
    ref_kind = "distinct" if kind == "distinct" else "shared"
    subject = anneal(
        layout, AreaCost(pull_weight=pull_weight), params, seed,
        resync_every, kind, movable,
    )
    reference = anneal(
        layout, GenericAreaCost(pull_weight=pull_weight), params, seed,
        resync_every, ref_kind, movable,
    )
    assert pin_of(*subject) == pin_of(*reference)


@pytest.mark.parametrize("n", ROUND_SIZES)
def test_schedules_accept_and_reject(n):
    """The compiled-round properties' schedules exercise both
    Metropolis outcomes: the coldest anneal start and the one-step
    rounds' span and temperature cycle."""
    layout = fixed_layout(n, n)
    _, stats, _ = anneal(layout, AreaCost(), short_schedule(0.3), 0.5, 1, 2048)
    assert 0 < stats.acceptances < stats.evaluations
    run, _, _ = bound_rounds(layout, AreaCost(), 0.5, 1, 2048)
    temperatures = [0.05, 1.0, 30.0]
    accepted = sum(
        run(k % 4, temperatures[k % 3], 1, 0.0, -math.inf)[1] for k in range(200)
    )
    assert 0 < accepted < 200


def test_area_cost_anneal_takes_the_fused_body(monkeypatch):
    """A plain ``AreaCost`` anneal never prices or applies through the
    evaluator's separate calls — a silent fallback to the generic body
    fails here — while the overriding cost goes through both."""
    layout = fixed_layout(12, 5)
    calls = {"components": 0, "apply": 0}
    for name in calls:
        original = getattr(IncrementalCostEvaluator, name)

        def counted(self, move, name=name, original=original):
            calls[name] += 1
            return original(self, move)

        monkeypatch.setattr(IncrementalCostEvaluator, name, counted)
    _, stats, _ = anneal(layout, AreaCost(), short_schedule(20.0), 0.5, 3, 2048)
    assert stats.acceptances > 0
    assert calls == {"components": 0, "apply": 0}
    _, stats, _ = anneal(layout, GenericAreaCost(), short_schedule(20.0), 0.5, 3, 2048)
    assert calls["components"] == stats.evaluations
    assert calls["apply"] == stats.acceptances


def test_area_cost_anneal_runs_the_compiled_round(monkeypatch):
    """An ``AreaCost`` anneal runs in the kernel: every proposal goes
    through ``anneal_round``, so the suite never quietly benchmarks the
    Python body."""
    kernel = kernels.load().anneal_round
    steps = 0

    def counted(*args):
        nonlocal steps
        ran = kernel(*args)
        steps += ran
        return ran

    monkeypatch.setattr(kernels, "load", lambda: SimpleNamespace(anneal_round=counted))
    _, stats, _ = anneal(fixed_layout(12, 5), AreaCost(), short_schedule(20.0), 0.5, 3, 7)
    assert steps == stats.evaluations > 0


#: The golden pins whose anneals include an ``AreaCost`` one.
AREA_COST_PINS = [
    name for name in PINS if name.startswith(("gen:", "balanced:", "no-rotation:"))
] + ["one-module", "two-module", "ltsa-pcr"]


@pytest.mark.parametrize("name", AREA_COST_PINS)
def test_golden_area_cost_pins_hold_on_the_generic_body(name, monkeypatch):
    """Every golden ``AreaCost`` pin, with the placers seeded with
    :class:`SubclassedRandom` generators, on which the compiled round
    declines: the generic body walks the pinned trajectories too."""

    def subclassed(seed):
        return seed if isinstance(seed, random.Random) else SubclassedRandom(seed)

    for placer in (sa_placer, two_stage):
        monkeypatch.setattr(placer, "ensure_rng", subclassed)
    bound = IncrementalCostEvaluator.bind_round
    compiled_rounds = []

    def spied(self, *args):
        run = bound(self, *args)
        compiled_rounds.append(run)
        return run

    monkeypatch.setattr(IncrementalCostEvaluator, "bind_round", spied)
    assert run_case(name, monkeypatch) == PINS[name]
    assert compiled_rounds and not any(compiled_rounds)


def test_failed_build_is_a_typed_error_for_the_anneal(failing_compiler):
    """A compiler that fails makes the first ``AreaCost`` anneal raise a
    :class:`KernelBuildError` naming the command and its stderr; the
    next anneal raises the same error without compiling again."""
    failing_compiler.install()
    layout = fixed_layout(12, 5)
    with pytest.raises(KernelBuildError) as first:
        anneal(layout, AreaCost(), short_schedule(20.0), 0.5, 3, 7)
    failing_compiler.check(first.value)
    with pytest.raises(KernelBuildError) as second:
        anneal(layout, AreaCost(), short_schedule(20.0), 0.5, 3, 7)
    failing_compiler.check_again(first.value, second.value)
