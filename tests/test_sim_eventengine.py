"""The realize-then-replay simulation core: dispatch order and parity.

Three layers of guarantees:

1. The replay-order contract — every fault entry is realized before
   any operation runs, then each operation is dispatched once in the
   total order ``(realized start, op id)``: a fault restart that delays
   an operation past another's start reorders their dispatches, and
   same-instant dispatches run in op-id order.
2. Engine parity properties — the production replay in
   :class:`~repro.sim.engine.BiochipSimulator` (packed router, memos,
   checkpoints cut from reports) is a *performance* rewrite, not a
   semantic one: for any bundled assay and fault scenario, it and the
   stepped oracle (:class:`oracles.SteppedSimulator`) must produce
   bit-identical :class:`SimulationReport`\\ s (events, realized
   intervals, transport accounting — everything), and checkpoints cut
   from a memoized report must equal the stepped oracle's replayed ones.
3. Purity — a run keeps no state on the simulator, so runs on one
   simulator equal runs on fresh ones, in any order.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import SteppedSimulator

from repro.assay.catalog import build_assay
from repro.placement.annealer import AnnealingParams
from repro.placement.sa_placer import SimulatedAnnealingPlacer
from repro.sim.engine import BiochipSimulator, checkpoint_at
from repro.synthesis.flow import SynthesisFlow
from repro.util.errors import SimulationError


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
        result.chip,
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


class TestReplayOrder:
    """The dispatch order the driver guarantees. Parity with the oracle
    cannot check it: both drivers run the same two loops."""

    @staticmethod
    def _dispatched(sim: BiochipSimulator, faults) -> tuple[list[str], object]:
        """Run *faults*, recording the order operations are dispatched in."""
        order: list[str] = []
        execute_op = sim._execute_op

        def spy(op_id, *args):
            order.append(op_id)
            return execute_op(op_id, *args)

        sim._execute_op = spy
        return order, sim.run(faults=faults)

    def test_fault_restart_reorders_dispatch_past_a_sibling(self):
        sim = _simulator("pcr", "event")
        graph = sim.graph
        nominal = {op: (sim.schedule.start(op), op) for op in sim.schedule.op_ids()}
        modules = sorted(pm.op_id for pm in sim.placement)
        siblings = [
            (a, b)
            for a, b in itertools.permutations(modules, 2)
            if set(graph.successors(a)) & set(graph.successors(b))
        ]
        for pick in itertools.product(range(len(modules)), (0.1, 0.2, 0.3, 0.4, 0.5)):
            faults = _fault_grid(sim, [pick])
            order, report = self._dispatched(sim, faults)
            if not report.completed:
                continue
            realized = report.realized
            overtaken = [
                (a, b)
                for a, b in siblings
                if nominal[a] < nominal[b] and (realized[a][0], a) > (realized[b][0], b)
            ]
            if overtaken:
                break
        else:
            pytest.fail("no single fault delays a pcr module past its sibling")
        assert order == sorted(realized, key=lambda op: (realized[op][0], op))
        late, early = overtaken[0]
        assert order.index(early) < order.index(late)
        starts = [e.op_id for e in report.events if e.kind == "op-start"]
        assert starts.index(early) < starts.index(late)

    def test_same_instant_dispatches_run_in_op_id_order(self):
        sim = _simulator("tree8", "event")
        order, report = self._dispatched(sim, [])
        assert report.completed
        start = {op: sim.schedule.start(op) for op in order}
        assert order == sorted(order, key=lambda op: (start[op], op))
        starts = [e.op_id for e in report.events if e.kind == "op-start"]
        tied = [op for op in starts if sum(start[o] == start[op] for o in starts) > 1]
        assert len(tied) > 1  # the scenario exercises the tie-break
        assert starts == sorted(starts, key=lambda op: (start[op], op))


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


def _observed(report) -> tuple:
    """:func:`_comparable` plus the fields a checkpoint is cut from."""
    return (*_comparable(report), report.realized, report.position_log)


def _m1_mid_fault(sim: BiochipSimulator) -> list:
    """A fault on M1's module at the middle of M1's interval: M1 is
    running, so partial reconfiguration relocates it."""
    iv = sim.schedule.interval("M1")
    return [((iv.start + iv.stop) / 2, sim.module_cell("M1"))]


class TestPureReplay:
    """``run()`` is a pure function of ``(simulator, faults)``: it
    keeps its state in a run record, never on the simulator."""

    def test_relocating_run_leaves_the_constructed_placement(self):
        sim = _simulator("pcr", "event")
        placement = sim.placement
        footprints = [(pm.op_id, pm.footprint) for pm in placement]
        cell = sim.module_cell("M1")
        report = sim.run(faults=_m1_mid_fault(sim))
        assert report.completed
        assert [r.op_id for r in report.relocations] == ["M1"]
        assert report.final_placement.get("M1") != placement.get("M1")
        assert sim.placement is placement
        assert [(pm.op_id, pm.footprint) for pm in sim.placement] == footprints
        assert sim.module_cell("M1") == cell

    def test_run_and_checkpoint_touch_only_the_memos(self):
        """Every attribute is the same object after a run and a
        checkpoint; only the report and parking memos grow. ``run``
        writes no report: only ``report`` (and ``checkpoint`` through
        it) does, and a checkpoint's report is the one ``report``
        returns for its fault list."""
        sim = _simulator("pcr", "event")
        before = dict(vars(sim))
        faults = _m1_mid_fault(sim)
        sim.run(faults=faults)
        assert not sim._report_memo and sim._park_memo
        sim.checkpoint(0.8 * sim.schedule.makespan, faults=faults)
        assert vars(sim).keys() == before.keys()
        assert all(vars(sim)[k] is v for k, v in before.items())
        (memoized,) = sim._report_memo.values()
        assert sim.report(faults) is memoized

    def test_run_replays_on_every_call(self):
        """``run`` is unmemoized: two calls give two report objects,
        equal field for field."""
        sim = _simulator("pcr", "event")
        faults = _m1_mid_fault(sim)
        first, second = sim.run(faults=faults), sim.run(faults=faults)
        assert first is not second
        assert _observed(first) == _observed(second)

    def test_fault_lists_in_either_order_match_fresh_simulators(self):
        probe = _simulator("pcr", "event")
        lists = [_m1_mid_fault(probe), _fault_grid(probe, [(4, 0.3)])]
        fresh = [_observed(_simulator("pcr", "event").run(faults=f)) for f in lists]
        assert fresh[0] != fresh[1]
        for order in ((0, 1), (1, 0)):
            sim = _simulator("pcr", "event")
            for i in order:
                assert _observed(sim.run(faults=lists[i])) == fresh[i]


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

    def test_checkpoint_after_run_matches_a_cold_one(self):
        """A run leaves nothing behind that a checkpoint reads: the
        checkpoint after it equals a fresh simulator's. A second
        checkpoint of the same faults is cut from the memoized report,
        with no replay."""
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

        replays = []
        sim.run = lambda faults=(): replays.append(faults)
        again = sim.checkpoint(0.5 * time_s, faults=faults)
        assert replays == []
        assert again == checkpoint_at(report, 0.5 * time_s, faults)

    def test_resume_round_trip_is_bit_identical(self):
        """checkpoint -> rerun with its recorded faults and no new one
        reproduces the original run exactly, on both engines."""
        for engine in ("event", "stepped"):
            sim = _simulator("pcr", engine)
            faults = _fault_grid(sim, [(2, 0.25)])
            original = sim.run(faults=faults)
            assert original.completed
            cp = sim.checkpoint(0.5 * sim.schedule.makespan, faults=faults)
            cp.validate(sim.schedule)
            resumed = sim.run(faults=cp.faults)
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
        event_report = event_sim.run(faults=[*event_cp.faults, *late])
        stepped_report = stepped_sim.run(faults=[*stepped_cp.faults, *late])
        assert _comparable(event_report) == _comparable(stepped_report)

    def test_checkpoint_rejects_future_faults(self):
        sim = _simulator("pcr", "event")
        faults = _fault_grid(sim, [(0, 0.9)])
        with pytest.raises(ValueError, match="future faults"):
            sim.checkpoint(0.1 * sim.schedule.makespan, faults=faults)
