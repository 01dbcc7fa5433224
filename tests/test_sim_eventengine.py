"""The discrete-event simulation core: queue semantics and parity.

Two layers of guarantees:

1. :class:`~repro.sim.eventengine.DiscreteEventEngine` unit tests — the
   deterministic total order (time, then priority, then scheduling
   sequence), 6tisch-style tag replacement, lazy cancellation, the
   ``until`` horizon, and the no-scheduling-into-the-past contract.
2. Engine parity properties — the event-driven replay in
   :class:`~repro.sim.engine.BiochipSimulator` is a *performance*
   rewrite, not a semantic one: for any bundled assay and fault
   scenario, it and the stepped oracle
   (:class:`oracles.SteppedSimulator`) must produce bit-identical
   :class:`SimulationReport`\\ s (events, realized intervals, transport
   accounting — everything), and checkpoints taken from the event log
   must equal the stepped oracle's replayed ones.
"""

from __future__ import annotations

from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import SteppedSimulator

from repro.assay.catalog import build_assay
from repro.placement.annealer import AnnealingParams
from repro.placement.sa_placer import SimulatedAnnealingPlacer
from repro.sim import DiscreteEventEngine
from repro.sim.engine import BiochipSimulator
from repro.synthesis.flow import SynthesisFlow
from repro.util.errors import SimulationError


# ---------------------------------------------------------------------------
# DiscreteEventEngine unit tests
# ---------------------------------------------------------------------------


class TestEventQueueOrdering:
    def test_fires_in_time_order_regardless_of_scheduling_order(self):
        engine = DiscreteEventEngine()
        fired: list[str] = []
        engine.schedule(3.0, lambda: fired.append("c"))
        engine.schedule(1.0, lambda: fired.append("a"))
        engine.schedule(2.0, lambda: fired.append("b"))
        assert engine.run() == 3
        assert fired == ["a", "b", "c"]
        assert engine.now == 3.0

    def test_priority_breaks_time_ties(self):
        engine = DiscreteEventEngine()
        fired: list[str] = []
        engine.schedule(1.0, lambda: fired.append("low"), priority=9)
        engine.schedule(1.0, lambda: fired.append("high"), priority=0)
        engine.run()
        assert fired == ["high", "low"]

    def test_sequence_breaks_full_ties_fifo(self):
        engine = DiscreteEventEngine()
        fired: list[int] = []
        for i in range(5):
            engine.schedule(1.0, lambda i=i: fired.append(i), priority=0)
        engine.run()
        assert fired == [0, 1, 2, 3, 4]

    def test_tuple_times_order_lexicographically(self):
        # The replay layer uses (phase, seconds) times; phase dominates.
        engine = DiscreteEventEngine()
        fired: list[str] = []
        engine.schedule((1, 0.0), lambda: fired.append("replay@0"))
        engine.schedule((0, 99.0), lambda: fired.append("fault@99"))
        engine.run()
        assert fired == ["fault@99", "replay@0"]

    def test_callbacks_can_schedule_future_events_within_a_run(self):
        engine = DiscreteEventEngine()
        fired: list[float] = []

        def chain(t: float) -> None:
            fired.append(t)
            if t < 3.0:
                engine.schedule(t + 1.0, lambda: chain(t + 1.0))

        engine.schedule(1.0, lambda: chain(1.0))
        assert engine.run() == 3
        assert fired == [1.0, 2.0, 3.0]


class TestTagsAndCancellation:
    def test_tag_replacement_keeps_only_the_latest(self):
        engine = DiscreteEventEngine()
        fired: list[str] = []
        engine.schedule(1.0, lambda: fired.append("old"), tag="op")
        engine.schedule(2.0, lambda: fired.append("new"), tag="op")
        engine.run()
        assert fired == ["new"]
        assert engine.cancelled == 1
        assert engine.scheduled == 2
        assert engine.processed == 1

    def test_cancel_is_lazy_and_idempotent(self):
        engine = DiscreteEventEngine()
        fired: list[str] = []
        engine.schedule(1.0, lambda: fired.append("x"), tag="t")
        assert engine.cancel("t") is True
        assert engine.cancel("t") is False
        assert engine.cancel("never-scheduled") is False
        assert engine.pending == 0
        assert engine.run() == 0
        assert fired == []

    def test_tag_is_released_after_firing(self):
        engine = DiscreteEventEngine()
        fired: list[str] = []
        engine.schedule(1.0, lambda: fired.append("first"), tag="op")
        engine.run()
        # Re-using the tag after its event fired schedules fresh —
        # nothing left to replace.
        engine.schedule(2.0, lambda: fired.append("second"), tag="op")
        engine.run()
        assert fired == ["first", "second"]
        assert engine.cancelled == 0


class TestRunSemantics:
    def test_until_leaves_later_events_queued(self):
        engine = DiscreteEventEngine()
        fired: list[float] = []
        for t in (1.0, 2.0, 3.0):
            engine.schedule(t, lambda t=t: fired.append(t))
        assert engine.run(until=2.0) == 2
        assert fired == [1.0, 2.0]
        assert engine.pending == 1
        assert engine.run() == 1
        assert fired == [1.0, 2.0, 3.0]

    def test_scheduling_into_the_past_raises(self):
        engine = DiscreteEventEngine()
        engine.schedule(5.0, lambda: None)
        engine.run()
        with pytest.raises(SimulationError, match="before the current"):
            engine.schedule(4.0, lambda: None)

    def test_scheduling_at_the_current_instant_is_allowed(self):
        engine = DiscreteEventEngine()
        fired: list[str] = []
        engine.schedule(
            1.0, lambda: engine.schedule(1.0, lambda: fired.append("same-t"))
        )
        engine.run()
        assert fired == ["same-t"]


# ---------------------------------------------------------------------------
# Engine parity: event-driven replay vs the stepped reference
# ---------------------------------------------------------------------------

_SEED = 11
#: Assays the property sweeps; tree16 (the paper schedule) is covered by
#: the benchmark's parity gate — here we keep examples cheap enough for
#: hypothesis to explore many fault grids.
_PARITY_ASSAYS = ("pcr", "dilution", "tree8")


@lru_cache(maxsize=None)
def _synthesized(assay: str):
    """One placed, scheduled instance per assay, shared across examples."""
    graph, explicit = build_assay(assay)
    flow = SynthesisFlow(
        placer=SimulatedAnnealingPlacer(params=AnnealingParams.fast(), seed=_SEED)
    )
    return flow.run(graph, explicit_binding=explicit)


def _simulator(assay: str, engine: str) -> BiochipSimulator:
    result = _synthesized(assay)
    simulator = SteppedSimulator if engine == "stepped" else BiochipSimulator
    return simulator(
        result.graph,
        result.schedule,
        result.binding,
        result.placement_result.placement,
        strict=False,
    )


def _fault_grid(sim: BiochipSimulator, picks: list[tuple[int, float]]):
    """Aim faults at module cells: (op index, makespan fraction) pairs."""
    ops = sorted(pm.op_id for pm in sim.placement)
    makespan = sim.schedule.makespan
    faults = []
    for op_index, fraction in picks:
        op_id = ops[op_index % len(ops)]
        faults.append((fraction * makespan, sim.module_cell(op_id)))
    return faults


def _comparable(report) -> tuple:
    """Everything a report observes, in a comparable shape."""
    return (
        report.to_dict(),
        report.events,
        [(r.op_id, r.old.footprint, r.new.footprint) for r in report.relocations],
        report.product.reagents if report.product is not None else None,
        report.product.volume_nl if report.product is not None else None,
    )


class TestEngineParity:
    @given(
        assay=st.sampled_from(_PARITY_ASSAYS),
        picks=st.lists(
            st.tuples(st.integers(0, 30), st.floats(0.05, 0.95)),
            min_size=0,
            max_size=2,
        ),
    )
    @settings(max_examples=25, deadline=None)
    def test_reports_bit_identical_across_engines(self, assay, picks):
        event_sim = _simulator(assay, "event")
        stepped_sim = _simulator(assay, "stepped")
        faults = _fault_grid(event_sim, picks)
        event_report = event_sim.run(faults=faults)
        stepped_report = stepped_sim.run(faults=faults)
        assert _comparable(event_report) == _comparable(stepped_report)

    def test_event_engine_reuses_the_array_across_runs(self):
        sim = _simulator("pcr", "event")
        faults = _fault_grid(sim, [(0, 0.3)])
        first = sim.run(faults=faults)
        again = sim.run(faults=faults)
        nominal = sim.run()
        assert _comparable(first) == _comparable(again)
        assert nominal.completed and nominal.delay_s == 0.0


class TestCheckpointOnEventLog:
    @given(
        assay=st.sampled_from(_PARITY_ASSAYS),
        fraction=st.floats(0.1, 0.9),
        pick=st.integers(0, 30),
    )
    @settings(max_examples=15, deadline=None)
    def test_checkpoint_truncation_matches_stepped_replay(
        self, assay, fraction, pick
    ):
        """A checkpoint truncated from the event log equals the stepped
        reference's replayed checkpoint, field for field."""
        event_sim = _simulator(assay, "event")
        stepped_sim = _simulator(assay, "stepped")
        makespan = event_sim.schedule.makespan
        fault_time = 0.25 * fraction * makespan
        faults = _fault_grid(event_sim, [(pick, 0.25 * fraction)])
        time_s = fraction * makespan
        try:
            event_cp = event_sim.checkpoint(time_s, faults=faults)
        except SimulationError as exc:
            # The faulted run is unrecoverable: both engines must agree.
            with pytest.raises(SimulationError):
                stepped_sim.checkpoint(time_s, faults=faults)
            return
        stepped_cp = stepped_sim.checkpoint(time_s, faults=faults)
        assert event_cp.to_dict() == stepped_cp.to_dict()
        assert event_cp.events_prefix == stepped_cp.events_prefix
        assert fault_time <= time_s  # scenario sanity, not a contract

    def test_checkpoint_after_run_is_a_cache_hit(self):
        """Once the event engine has run a fault list, checkpointing it
        is log truncation — the same object as the cold checkpoint."""
        sim = _simulator("pcr", "event")
        faults = _fault_grid(sim, [(2, 0.2)])
        report = sim.run(faults=faults)
        assert report.completed
        time_s = 0.6 * sim.schedule.makespan
        warm = sim.checkpoint(time_s, faults=faults)

        cold_sim = _simulator("pcr", "event")
        cold = cold_sim.checkpoint(time_s, faults=faults)
        assert warm.to_dict() == cold.to_dict()
        assert warm.events_prefix == cold.events_prefix

    def test_resume_round_trip_is_bit_identical(self):
        """checkpoint -> resume with no new fault reproduces the
        original run exactly, on both engines."""
        for engine in ("event", "stepped"):
            sim = _simulator("pcr", engine)
            faults = _fault_grid(sim, [(2, 0.25)])
            original = sim.run(faults=faults)
            assert original.completed
            cp = sim.checkpoint(0.5 * sim.schedule.makespan, faults=faults)
            resumed = sim.resume(cp)
            assert _comparable(resumed) == _comparable(original)

    def test_resume_with_new_fault_matches_across_engines(self):
        event_sim = _simulator("pcr", "event")
        stepped_sim = _simulator("pcr", "stepped")
        makespan = event_sim.schedule.makespan
        first = _fault_grid(event_sim, [(2, 0.2)])
        late = _fault_grid(event_sim, [(4, 0.7)])
        time_s = 0.5 * makespan

        event_cp = event_sim.checkpoint(time_s, faults=first)
        stepped_cp = stepped_sim.checkpoint(time_s, faults=first)
        event_report = event_sim.resume(event_cp, new_faults=late)
        stepped_report = stepped_sim.resume(stepped_cp, new_faults=late)
        assert _comparable(event_report) == _comparable(stepped_report)

    def test_checkpoint_rejects_future_faults(self):
        sim = _simulator("pcr", "event")
        faults = _fault_grid(sim, [(0, 0.9)])
        with pytest.raises(ValueError, match="future faults"):
            sim.checkpoint(0.1 * sim.schedule.makespan, faults=faults)
