"""A resumed replay equals the full replay, bit for bit.

``BiochipSimulator.run(faults, resume=source)`` takes every leading
dispatch the *source* report made before the first instant at which
the two fault timelines differ (the cut) that the new layout and plan
leave untouched, and dispatches only the rest. The full replay stays
the reference: here it is the stepped oracle of
``tests/oracles/sim.py``, which ignores *resume* and replays from t=0.
Checked over the five bundled assays and the designs of
``examples/campaigns/ci-grid.toml``, with hypothesis-drawn cuts and
fault cells, on the three resumes the library runs: a new fault on the
same design, a recovery rung on its re-placed layout and merged plan,
and the closed loop's verdict.
"""

from __future__ import annotations

import random

from assays import ci_grid_designs, routed_assay
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import SteppedSimulator

from repro.assay.catalog import BUNDLED_ASSAYS
from repro.fault.models import FAIL
from repro.placement.annealer import AnnealingParams
from repro.recovery import ClosedLoopController, OnlineRecoveryEngine, fault_timeline
from repro.recovery.engine import FAULT_TARGETS, pick_fault_cell
from repro.sim.engine import BiochipSimulator
from repro.testing import CapacitiveSensor

_LOSSY = CapacitiveSensor(false_positive_rate=0.02, false_negative_rate=0.05)


def _design(name: str):
    if name in BUNDLED_ASSAYS:
        return routed_assay(name)
    return ci_grid_designs()[name]


_DESIGNS = (
    *sorted(BUNDLED_ASSAYS),
    *(
        f"gen:{family}:n=50:seed={seed}|{array}"
        for family, seed in (("mix-tree", 3), ("panel", 4))
        for array in ("auto", "12x12")
    ),
)


def _engine() -> OnlineRecoveryEngine:
    return OnlineRecoveryEngine(annealing=AnnealingParams.fast())


def _full_replay(result, placement, plan, covers, faults):
    """The stepped oracle's replay from t=0 of *placement* under *plan*."""
    oracle = SteppedSimulator(
        result.graph, result.schedule, result.binding, placement, result.chip,
        routing_plan=plan, plan_covers_faults=covers,
    )
    return oracle.run(faults)


def _assert_same(resumed, full) -> None:
    assert (resumed.to_dict(), resumed.events) == (full.to_dict(), full.events)
    assert resumed.position_log == full.position_log
    assert resumed.planned_transports == full.planned_transports
    assert resumed.realized == full.realized
    assert resumed.product == full.product
    assert resumed.final_placement.modules() == full.final_placement.modules()


def _nominal(result) -> BiochipSimulator:
    return BiochipSimulator(
        result.graph, result.schedule, result.binding,
        result.placement_result.placement, result.chip,
        routing_plan=result.routing_plan,
    )


def _skipped(report) -> int:
    """Leading dispatches a resumed *report* took from its source."""
    return len(report.realized) - report.dispatched


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(_DESIGNS),
    fraction=st.floats(min_value=0.0, max_value=1.1, allow_nan=False),
    x=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
    y=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
    clears_after=st.one_of(st.none(), st.floats(min_value=0.1, max_value=20.0)),
)
def test_a_new_fault_resumes_to_the_full_replay(name, fraction, x, y, clears_after):
    """The same design under one more fault (permanent, or a transient
    that clears), resumed from the fault-free report at the fault
    instant."""
    result = _design(name)
    chip = result.chip
    sim = _nominal(result)
    source = sim.report()
    t = fraction * result.makespan
    cell = (1 + int(x * chip.width), 1 + int(y * chip.height))
    faults = [(t, cell, "fail")]
    if clears_after is not None:
        faults.append((t + clears_after, cell, "clear"))
    resumed = sim.run(faults, resume=source)
    full = _full_replay(
        result, result.placement_result.placement, result.routing_plan, (), faults
    )
    _assert_same(resumed, full)
    assert resumed.dispatched <= len(source.realized)


@settings(max_examples=30, deadline=None)
@given(
    name=st.sampled_from(_DESIGNS),
    fraction=st.floats(min_value=0.05, max_value=0.9, allow_nan=False),
    target=st.sampled_from(FAULT_TARGETS),
    seed=st.integers(min_value=0, max_value=2**16),
    rung=st.sampled_from(("relocate", "replace", "resynth")),
)
def test_a_rung_replay_resumes_to_the_full_replay(name, fraction, target, seed, rung):
    """A recovery rung's replay of its re-placed layout and merged plan,
    resumed from the detection's checkpoint report at the fault
    instant, equals the full replay of that design."""
    result = _design(name)
    engine = _engine()
    t = fraction * result.makespan
    checkpoint = engine.checkpoint_of(result, t)
    cell = pick_fault_cell(result, checkpoint, target, rng=seed)
    outcome = engine.recover(result, [cell], t, seed=seed, rung=rung)
    if outcome.sim_report is None:
        return  # the rung refused before replaying
    full = _full_replay(
        result, outcome.placement, outcome.routing_plan, [cell],
        [(t, result.chip.cell(cell))],
    )
    _assert_same(outcome.sim_report, full)


@settings(max_examples=25, deadline=None)
@given(
    name=st.sampled_from(_DESIGNS),
    model=st.sampled_from(("permanent", "transient", "intermittent", "cluster")),
    fraction=st.floats(min_value=0.1, max_value=0.8, allow_nan=False),
    seed=st.integers(min_value=0, max_value=2**16),
    lossy=st.booleans(),
)
def test_a_verdict_resumes_to_the_full_replay(name, model, fraction, seed, lossy):
    """The closed loop's verdict, resumed from the final rung's report
    (or the nominal one), equals the full replay of the final design
    under the true timeline."""
    result = _design(name)
    engine = _engine()
    rng = random.Random(seed)
    events = fault_timeline(
        engine, result, model, fraction * result.makespan, "pending-module", rng
    )
    controller = ClosedLoopController(engine=engine, sensor=_LOSSY if lossy else None)
    outcome = controller.run(result, events, seed=seed, mode="closed-loop")
    if outcome.verdict is None:
        return  # aborted before any plan
    _assert_verdict_is_the_full_replay(result, outcome)


def _assert_verdict_is_the_full_replay(result, outcome) -> None:
    """The verdict replays the design of the last recovery that
    succeeded, credited with the cells believed by then: an aborted run
    keeps the verdict it had before its last detection."""
    detections = outcome.detections[:-1] if outcome.aborted else outcome.detections
    final = next((r for r in reversed(outcome.recoveries) if r.recovered), None)
    placement = final.placement if final else result.placement_result.placement
    plan = final.routing_plan if final else result.routing_plan
    believed = [d.believed_cell for d in detections]
    full = _full_replay(
        result, placement, plan, believed,
        [(e.time_s, result.chip.cell(e.cell), e.kind) for e in outcome.fault_events],
    )
    _assert_same(outcome.verdict, full)


def test_an_in_flight_module_hit_at_the_cut_resumes_before_it():
    """A fault on a module running at the cut relocates and restarts it:
    its dispatch and everything after it run again, while the
    operations that finished before it are kept."""
    result = _design("ivd")
    sim = _nominal(result)
    source = sim.report()
    t = 0.45 * result.makespan
    checkpoint = _engine().checkpoint_of(result, t)
    cell = result.chip.cell(pick_fault_cell(result, checkpoint, "in-flight-module", rng=1))
    resumed = sim.run([(t, cell)], resume=source)
    assert {r.op_id for r in resumed.relocations} & set(checkpoint.in_flight)
    full = _full_replay(
        result, result.placement_result.placement, result.routing_plan, (), [(t, cell)]
    )
    _assert_same(resumed, full)
    order = sorted(source.realized, key=lambda op: (source.realized[op][0], op))
    hit = [r.op_id for r in resumed.relocations]
    assert 0 < _skipped(resumed) <= min(order.index(op) for op in hit)


def test_a_verdict_after_a_false_alarm_recovery_is_the_full_replay():
    """A lossy sensor's false alarm is recovered around at t=5 s,
    before the true fault at t=11.4 s: the verdict's history ends at
    the false alarm's recovery, not at the first true fault."""
    result = _design("pcr")
    engine = _engine()
    sensor = CapacitiveSensor(false_positive_rate=0.1, false_negative_rate=0.05)
    events = fault_timeline(
        engine, result, "permanent", 0.6 * result.makespan, "pending-module",
        random.Random(1),
    )
    outcome = ClosedLoopController(engine=engine, sensor=sensor).run(
        result, events, seed=1, mode="closed-loop"
    )
    (phantom,) = outcome.detections
    assert phantom.true_cell is None
    first_fault = min(e.time_s for e in events if e.kind == FAIL)
    assert phantom.detected_at_s < first_fault
    assert outcome.completed
    _assert_verdict_is_the_full_replay(result, outcome)


def test_a_rung_replay_keeps_the_history_before_the_fault():
    """In oracle mode under one permanent fault at 45% of the makespan,
    the recovering rung's replay takes what finished before the fault
    from the checkpoint's report (pcr and tree8 have nothing that does
    and no history to keep), and the verdict is the full replay."""
    for assay in ("dilution", "ivd", "tree16"):
        result = _design(assay)
        engine = _engine()
        events = fault_timeline(
            engine, result, "permanent", 0.45 * result.makespan, "pending-module",
            random.Random(2),
        )
        outcome = ClosedLoopController(engine=engine).run(
            result, events, seed=2, mode="oracle"
        )
        assert outcome.completed and len(outcome.recoveries) == 1
        assert _skipped(outcome.recoveries[0].sim_report) > 0
        _assert_verdict_is_the_full_replay(result, outcome)


def test_a_full_replay_dispatches_every_operation():
    result = _design("ivd")
    report = _nominal(result).run()
    assert report.dispatched == len(report.realized) > 0
