"""Unit and integration tests for the online fault-recovery engine."""

from __future__ import annotations

import pytest

from repro.assay.catalog import build_assay
from repro.geometry import Point
from repro.placement.annealer import AnnealingParams
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
    outcome = engine.recover(routed_pcr, [cell], t, seed=3, checkpoint=ck)
    assert outcome.recovered, outcome.reason
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
    outcome = engine.recover(routed_pcr, [cell], t, seed=3, checkpoint=ck)
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
    outcome = engine.recover(routed_pcr, [cell], t, seed=3, checkpoint=ck)
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
    w, h = routed_pcr.placement_result.array_dims
    everything = [
        (x, y)
        for x in range(1, w + engine.core_slack + 1)
        for y in range(1, h + engine.core_slack + 1)
    ]
    outcome = engine.recover(routed_pcr, everything, t, seed=3)
    assert not outcome.recovered
    assert "no fault-free placement" in outcome.reason


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
    outcome = engine.recover(routed_pcr, [cell], t, seed=3, checkpoint=ck)
    payload = json.loads(json.dumps(outcome.to_dict()))
    assert payload["recovered"] is True
    assert payload["checkpoint"]["pending"]
