"""Unit and integration tests for the online fault-recovery engine."""

from __future__ import annotations

import pytest

from repro.assay.catalog import build_assay
from repro.fault.reconfigure import PartialReconfigurer
from repro.geometry import Point, Rect
from repro.placement.annealer import AnnealingParams, SimulatedAnnealing
from repro.placement.incremental import IncrementalCostEvaluator
from repro.placement.sa_placer import SimulatedAnnealingPlacer
from repro.recovery import OnlineRecoveryEngine
from repro.recovery.engine import FaultAvoidanceCost, pick_fault_cell
from repro.synthesis.flow import SynthesisFlow
from repro.util.errors import RecoveryError


@pytest.fixture(scope="module")
def routed_pcr():
    graph, binding = build_assay("pcr")
    flow = SynthesisFlow(
        placer=SimulatedAnnealingPlacer(params=AnnealingParams.fast(), seed=7),
        route=True,
    )
    return flow.run(graph, explicit_binding=binding)


@pytest.fixture(scope="module")
def engine():
    return OnlineRecoveryEngine(annealing=AnnealingParams.fast())


def _mid_fault(engine, result, fraction=0.5, target="pending-module", seed=3):
    t = fraction * result.schedule.makespan
    ck = engine.checkpoint_of(result, t)
    cell = pick_fault_cell(result, ck, target, rng=seed)
    return t, ck, cell


def test_recover_midassay_fault_end_to_end(routed_pcr, engine):
    t, ck, cell = _mid_fault(engine, routed_pcr)
    outcome = engine.recover(routed_pcr, [cell], t, seed=3)
    assert outcome.recovered, outcome.reason
    assert outcome.checkpoint == ck  # the engine cuts the nominal checkpoint
    assert outcome.plan_verified
    assert outcome.sim_report is not None and outcome.sim_report.completed
    # The merged plan routes everything and passes the verifier.
    assert outcome.routing_plan.routability == 1.0
    outcome.routing_plan.verify()
    # Makespan can only stay or grow; re-synthesis latencies were timed.
    assert outcome.recovered_makespan_s >= outcome.nominal_makespan_s
    assert outcome.recovery_s >= outcome.replace_s + outcome.reroute_s - 1e-9


def test_frozen_modules_never_move(routed_pcr, engine):
    t, ck, cell = _mid_fault(engine, routed_pcr)
    outcome = engine.recover(routed_pcr, [cell], t, seed=3)
    nominal = routed_pcr.placement_result.placement
    frozen = set(ck.completed) | set(ck.in_flight)
    for op in frozen:
        if op not in nominal:
            continue
        old, new = nominal.get(op), outcome.placement.get(op)
        assert (old.x, old.y, old.rotated) == (new.x, new.y, new.rotated)
    # Movable modules never sit on the dead cell.
    for op in outcome.movable_ops:
        assert not outcome.placement.get(op).footprint.contains_point(Point(*cell))


def test_prefix_epochs_reused_verbatim(routed_pcr, engine):
    t, ck, cell = _mid_fault(engine, routed_pcr)
    outcome = engine.recover(routed_pcr, [cell], t, seed=3)
    nominal_prefix = [
        e for e in routed_pcr.routing_plan.epochs if e.time_s < t
    ]
    assert list(outcome.routing_plan.epochs[: len(nominal_prefix)]) == nominal_prefix
    assert outcome.reused_epochs == len(nominal_prefix)
    # Suffix epochs all release at or after the fault (an epoch at the
    # exact fault instant already faces the dead cell, so it is
    # re-routed, never reused) and know the updated fault mask.
    for epoch in outcome.routing_plan.epochs[len(nominal_prefix):]:
        assert epoch.time_s >= t
        assert epoch.faulty  # the updated fault mask reached the grid


def test_unrecoverable_fault_yields_explicit_infeasibility(routed_pcr, engine):
    """Killing every core cell leaves no site for any pending module:
    the engine must report infeasibility, not raise or half-answer."""
    t = 0.5 * routed_pcr.schedule.makespan
    core = routed_pcr.chip.claimable(routed_pcr.placement_result.placement)
    everything = [
        (x, y)
        for x in range(1, core.core_width + 1)
        for y in range(1, core.core_height + 1)
    ]
    outcome = engine.recover(routed_pcr, everything, t, seed=3)
    assert not outcome.recovered
    assert "no fault-free placement" in outcome.reason


def test_relocate_moves_only_the_hit_modules(routed_pcr, engine, monkeypatch):
    """The relocate rung is MER rescue + suffix re-route: no anneal
    runs, and exactly the modules on the dead cell move."""
    def no_anneal(*args, **kwargs):
        raise AssertionError("the relocate rung must not anneal")

    monkeypatch.setattr(SimulatedAnnealing, "optimize_incremental", no_anneal)
    t, ck, cell = _mid_fault(engine, routed_pcr)
    outcome = engine.recover(routed_pcr, [cell], t, rung="relocate")
    assert outcome.recovered and outcome.plan_verified, outcome.reason
    assert outcome.rung == "relocate"
    assert outcome.relocated_ops and outcome.moved_ops == outcome.relocated_ops
    for op in outcome.relocated_ops:
        assert not outcome.placement.get(op).footprint.contains_point(cell)


def test_relocate_fails_fast_without_a_pending_hit(routed_pcr, engine):
    """A street fault leaves relocate nothing to move: its layout would
    be the reroute rung's, so it fails before routing or replay."""
    t, ck, cell = _mid_fault(engine, routed_pcr, target="street")
    outcome = engine.recover(routed_pcr, [cell], t, rung="relocate")
    assert not outcome.recovered
    assert outcome.reason == (
        "no pending module covers a dead cell; nothing to relocate"
    )
    assert outcome.reroute_s == 0.0 and outcome.sim_report is None
    assert outcome.routing_plan is None and outcome.relocated_ops == ()


def test_relocate_fails_fast_without_a_mer_site(routed_pcr, engine):
    """With every core cell dead no hit module has a fault-free MER
    site: relocate names them and stops before routing or replay."""
    t = 0.5 * routed_pcr.schedule.makespan
    core = routed_pcr.chip.claimable(routed_pcr.placement_result.placement)
    everything = [
        (x, y)
        for x in range(1, core.core_width + 1)
        for y in range(1, core.core_height + 1)
    ]
    outcome = engine.recover(routed_pcr, everything, t, rung="relocate")
    assert not outcome.recovered
    assert outcome.reason.startswith("no fault-free MER site for pending module(s) ")
    named = outcome.reason.rsplit(") ", 1)[1].split(", ")
    assert named == list(outcome.movable_ops)
    assert outcome.reroute_s == 0.0 and outcome.sim_report is None


def _left_of_spare_strip(result, width):
    """Every claimable cell left of the chip's last *width* columns."""
    core = result.chip.claimable(result.placement_result.placement)
    return core, [
        Point(x, y)
        for x in range(1, core.core_width - width + 1)
        for y in range(1, core.core_height + 1)
    ]


def test_relocation_never_claims_a_port_cell(routed_pcr, engine):
    """The output port sits on the chip's right edge, inside the spare
    lanes recovery may claim. With every cell left of a 4-wide strip
    dead, M7's nearest fault-free site covers it; relocation takes the
    next one instead."""
    chip = routed_pcr.chip
    (port,) = chip.reserved
    assert chip.cell(port) == chip.output_port
    core, dead = _left_of_spare_strip(routed_pcr, 4)
    nearest = PartialReconfigurer().find_target(core, core.get("M7"), dead)
    assert nearest.footprint.contains_point(port)
    outcome = engine.recover(routed_pcr, dead, 15.5, rung="relocate")
    assert outcome.relocated_ops == ("M7",)
    assert outcome.placement.get("M7").footprint == Rect(7, 5, 4, 6)


def test_warm_anneal_never_claims_a_port_cell(routed_pcr, engine, monkeypatch):
    """An anneal whose best layout parks a pending module on the output
    port is discarded for the pre-anneal layout."""
    (port,) = routed_pcr.chip.reserved
    on_port = None

    def anneal_onto_the_port(self, evaluator, *args, **kwargs):
        nonlocal on_port
        best = evaluator.placement.copy()
        best.replace(best.get("M7").moved_to(7, 3, rotated=True))
        assert best.is_feasible() and best.get("M7").footprint.contains_point(port)
        on_port = best
        return best, None

    monkeypatch.setattr(SimulatedAnnealing, "optimize_incremental", anneal_onto_the_port)
    outcome = engine.recover(routed_pcr, [Point(2, 4)], 15.5, seed=3, rung="replace")
    assert on_port is not None
    assert outcome.placement is not on_port
    assert not outcome.placement.get("M7").footprint.contains_point(port)


def test_recover_requires_a_fault_cell(routed_pcr, engine):
    with pytest.raises(RecoveryError):
        engine.recover(routed_pcr, [], 1.0)
    with pytest.raises(RecoveryError):
        engine.checkpoint_of(routed_pcr, -1.0)


def test_pick_fault_cell_kinds_and_determinism(routed_pcr, engine):
    t = 0.5 * routed_pcr.schedule.makespan
    ck = engine.checkpoint_of(routed_pcr, t)
    placement = routed_pcr.placement_result.placement
    for target in ("pending-module", "in-flight-module", "center", "street"):
        a = pick_fault_cell(routed_pcr, ck, target, rng=5)
        b = pick_fault_cell(routed_pcr, ck, target, rng=5)
        assert a == b  # seeded draws are reproducible
        w, h = placement.array_dims()
        assert 1 <= a.x <= w and 1 <= a.y <= h
    with pytest.raises(RecoveryError):
        pick_fault_cell(routed_pcr, ck, "no-such-kind")
    # street cells are never under a module footprint.
    street = pick_fault_cell(routed_pcr, ck, "street", rng=5)
    assert not any(pm.footprint.contains_point(street) for pm in placement)


def test_fault_avoidance_cost_incremental_parity(routed_pcr):
    """The warm-restart cost's delta must match its full recompute for
    arbitrary moves (the contract the incremental anneal relies on)."""
    from repro.placement.cost import require_delta
    from repro.placement.moves import MoveGenerator

    placement = routed_pcr.placement_result.placement.copy()
    anchors = {pm.op_id: (pm.x, pm.y) for pm in placement}
    cost = FaultAvoidanceCost([(2, 2), (5, 5)], anchors=anchors)
    require_delta(cost)  # the protocol the placers demand
    evaluator = IncrementalCostEvaluator(placement)
    window = AnnealingParams.fast().make_window(max_span=8)
    propose = MoveGenerator(window=window, seed=13).bind(evaluator)
    for _ in range(60):
        move = propose(window.span(100.0))
        before = cost(evaluator.placement)
        delta = cost.delta(evaluator, move)
        evaluator.apply(move)
        after = cost(evaluator.placement)
        assert abs((after - before) - delta) < 1e-6


def test_movable_filter_restricts_moves(routed_pcr):
    from repro.placement.moves import MoveGenerator

    placement = routed_pcr.placement_result.placement
    ops = sorted(placement.op_ids())
    movable = frozenset(ops[:2])
    window = AnnealingParams.fast().make_window(max_span=8)
    evaluator = IncrementalCostEvaluator(placement.copy())
    propose = MoveGenerator(window=window, movable=movable, seed=3).bind(evaluator)
    for _ in range(50):
        move = propose(window.span(50.0))
        assert {evaluator.ops[i] for i in move[::4]} <= movable


def test_outcome_to_dict_is_json_safe(routed_pcr, engine):
    import json

    t, ck, cell = _mid_fault(engine, routed_pcr)
    outcome = engine.recover(routed_pcr, [cell], t, seed=3)
    payload = json.loads(json.dumps(outcome.to_dict()))
    assert payload["recovered"] is True
    assert payload["checkpoint"]["pending"]
