"""Unit tests for list scheduling, its ASAP/ALAP reference bounds and
the Schedule container."""

import hashlib

import pytest
from hypothesis import given
from hypothesis import strategies as st
from oracles.schedule import alap_schedule, asap_schedule, critical_path_length

from repro.assay.catalog import build_assay
from repro.assay.graph import SequencingGraph
from repro.assay.operations import Operation, OperationType
from repro.assay.protocols.pcr import build_pcr_mixing_graph
from repro.geometry import Interval
from repro.pipeline.context import SynthesisContext
from repro.pipeline.stages import BindStage
from repro.synthesis.schedule import Schedule
from repro.synthesis.scheduler import (
    integerized,
    list_schedule,
    remaining_path_lengths,
)
from repro.util.errors import ScheduleError

PCR_DURATIONS = {
    "M1": 10.0, "M2": 5.0, "M3": 6.0, "M4": 5.0,
    "M5": 5.0, "M6": 10.0, "M7": 3.0,
}


def chain(n: int = 3) -> SequencingGraph:
    g = SequencingGraph()
    prev = None
    for i in range(n):
        g.add_operation(Operation(f"op{i}", OperationType.MIX))
        if prev is not None:
            g.add_dependency(prev, f"op{i}")
        prev = f"op{i}"
    return g


class TestASAP:
    def test_pcr_asap_starts(self):
        g = build_pcr_mixing_graph()
        s = asap_schedule(g, PCR_DURATIONS)
        assert s.start("M1") == 0 and s.start("M4") == 0
        assert s.start("M5") == 10  # waits for M1
        assert s.start("M6") == 6   # waits for M3
        assert s.start("M7") == 16
        assert s.makespan == 19

    def test_asap_equals_critical_path(self):
        g = build_pcr_mixing_graph()
        s = asap_schedule(g, PCR_DURATIONS)
        assert s.makespan == critical_path_length(g, PCR_DURATIONS)

    def test_missing_duration(self):
        g = chain(2)
        with pytest.raises(ScheduleError):
            list_schedule(g, {"op0": 1.0})

    def test_nonpositive_duration(self):
        g = chain(2)
        with pytest.raises(ScheduleError):
            list_schedule(g, {"op0": 1.0, "op1": 0.0})


class TestALAP:
    def test_alap_meets_deadline(self):
        g = build_pcr_mixing_graph()
        s = alap_schedule(g, PCR_DURATIONS, deadline=25)
        assert s.makespan == 25
        s.validate_precedence(g)

    def test_alap_default_deadline_is_critical_path(self):
        g = build_pcr_mixing_graph()
        s = alap_schedule(g, PCR_DURATIONS)
        assert s.makespan == 19

    def test_critical_ops_coincide_with_asap(self):
        g = build_pcr_mixing_graph()
        asap = asap_schedule(g, PCR_DURATIONS)
        alap = alap_schedule(g, PCR_DURATIONS)
        for op in g.critical_path(PCR_DURATIONS):
            assert asap.start(op) == alap.start(op)

    def test_infeasible_deadline(self):
        g = build_pcr_mixing_graph()
        with pytest.raises(ScheduleError):
            alap_schedule(g, PCR_DURATIONS, deadline=10)

    def test_asap_never_later_than_alap(self):
        g = build_pcr_mixing_graph()
        asap = asap_schedule(g, PCR_DURATIONS)
        alap = alap_schedule(g, PCR_DURATIONS)
        for op in g:
            assert asap.start(op.id) <= alap.start(op.id)


class TestListSchedule:
    def test_unconstrained_matches_asap(self):
        g = build_pcr_mixing_graph()
        ls = list_schedule(g, PCR_DURATIONS)
        asap = asap_schedule(g, PCR_DURATIONS)
        for op in g:
            assert ls.start(op.id) == asap.start(op.id)

    def test_concurrency_cap_respected(self):
        g = build_pcr_mixing_graph()
        s = list_schedule(g, PCR_DURATIONS, max_concurrent_ops=2)
        assert s.max_concurrency() <= 2
        s.validate_precedence(g)

    def test_cap_three_gives_paper_consistent_schedule(self):
        g = build_pcr_mixing_graph()
        footprints = {"M1": 16, "M2": 18, "M3": 20, "M4": 18, "M5": 18, "M6": 16, "M7": 24}
        s = list_schedule(
            g, PCR_DURATIONS, max_concurrent_ops=3,
            cell_capacity=63, footprints=footprints,
        )
        assert s.peak_cell_demand(footprints) <= 63
        assert s.makespan == 19  # no makespan penalty vs ASAP
        s.validate_precedence(g)

    def test_cell_capacity_respected(self):
        g = build_pcr_mixing_graph()
        footprints = {"M1": 16, "M2": 18, "M3": 20, "M4": 18, "M5": 18, "M6": 16, "M7": 24}
        s = list_schedule(g, PCR_DURATIONS, cell_capacity=40, footprints=footprints)
        assert s.peak_cell_demand(footprints) <= 40
        s.validate_precedence(g)

    def test_cell_capacity_requires_footprints(self):
        g = build_pcr_mixing_graph()
        with pytest.raises(ScheduleError):
            list_schedule(g, PCR_DURATIONS, cell_capacity=40)

    def test_single_op_exceeding_capacity(self):
        g = build_pcr_mixing_graph()
        footprints = {op: 30 for op in PCR_DURATIONS}
        with pytest.raises(ScheduleError):
            list_schedule(g, PCR_DURATIONS, cell_capacity=20, footprints=footprints)

    def test_invalid_cap(self):
        g = chain(2)
        with pytest.raises(ScheduleError):
            list_schedule(g, {"op0": 1, "op1": 1}, max_concurrent_ops=0)

    def test_priority_is_remaining_path(self):
        g = build_pcr_mixing_graph()
        prio = remaining_path_lengths(g, PCR_DURATIONS)
        # M3 -> M6 -> M7 = 19 is the critical chain.
        assert prio["M3"] == 19
        assert prio["M1"] == 18
        assert prio["M7"] == 3

    def test_cap_one_serializes_everything(self):
        g = build_pcr_mixing_graph()
        s = list_schedule(g, PCR_DURATIONS, max_concurrent_ops=1)
        assert s.max_concurrency() == 1
        assert s.makespan == sum(PCR_DURATIONS.values())

    @given(cap=st.integers(1, 7))
    def test_any_cap_preserves_precedence(self, cap):
        g = build_pcr_mixing_graph()
        s = list_schedule(g, PCR_DURATIONS, max_concurrent_ops=cap)
        s.validate_precedence(g)

    @given(cap=st.integers(1, 7))
    def test_any_cap_lies_between_asap_and_alap(self, cap):
        g = build_pcr_mixing_graph()
        s = list_schedule(g, PCR_DURATIONS, max_concurrent_ops=cap)
        asap = asap_schedule(g, PCR_DURATIONS)
        alap = alap_schedule(g, PCR_DURATIONS, deadline=s.makespan)
        for op in g:
            assert asap.start(op.id) <= s.start(op.id) <= alap.start(op.id)


def peak_parked(g: SequencingGraph, sched: Schedule) -> int:
    """Max count of edges whose producer finished but consumer has not
    started, over all completion instants."""
    stop = {op.id: sched.stop(op.id) for op in g}
    start = {op.id: sched.start(op.id) for op in g}
    edges = [(u.id, v) for u in g for v in g.successors(u.id)]
    return max(
        sum(1 for u, v in edges if stop[u] <= t < start[v])
        for t in sorted(set(stop.values()))
    )


class TestMaxParked:
    """The storage-pressure bound on finished-but-unconsumed products."""

    def wide_fanin(self, pairs: int = 6) -> SequencingGraph:
        """Many independent dispense pairs feeding one mix each: with
        unconstrained priority every dispense front-loads at t=0 and
        the products pile up waiting for their (serialized) mixes."""
        g = SequencingGraph()
        for i in range(pairs):
            for tag in ("a", "b"):
                g.add_operation(
                    Operation(f"d{tag}{i}", OperationType.DISPENSE)
                )
            g.add_operation(Operation(f"m{i}", OperationType.MIX))
            g.add_dependency(f"da{i}", f"m{i}")
            g.add_dependency(f"db{i}", f"m{i}")
        return g

    def durations(self, g: SequencingGraph) -> dict[str, float]:
        return {
            op.id: 2.0 if op.type is OperationType.DISPENSE else 10.0
            for op in g
        }

    def test_unbounded_piles_up(self):
        g = self.wide_fanin()
        s = list_schedule(g, self.durations(g), max_concurrent_ops=1)
        assert peak_parked(g, s) >= 8

    def test_bound_caps_the_pile(self):
        g = self.wide_fanin()
        s = list_schedule(
            g, self.durations(g), max_concurrent_ops=1, max_parked=2
        )
        s.validate_precedence(g)
        assert peak_parked(g, s) <= 2
        assert len(s) == len(g)

    def test_default_is_unchanged(self):
        g = self.wide_fanin()
        a = list_schedule(g, self.durations(g), max_concurrent_ops=2)
        b = list_schedule(
            g, self.durations(g), max_concurrent_ops=2, max_parked=None
        )
        assert a.to_dict() == b.to_dict()

    def test_invalid_bound(self):
        g = chain(2)
        with pytest.raises(ScheduleError, match="max_parked"):
            list_schedule(g, {"op0": 1.0, "op1": 1.0}, max_parked=0)

    def test_bound_cannot_deadlock_a_chain(self):
        # A pure chain never parks more than one product; the bound is
        # irrelevant but must not stall the schedule.
        g = chain(5)
        durations = {f"op{i}": 1.0 for i in range(5)}
        s = list_schedule(g, durations, max_parked=1)
        assert len(s) == 5
        s.validate_precedence(g)

    @given(mp=st.integers(1, 4))
    def test_any_bound_schedules_everything(self, mp):
        g = self.wide_fanin(4)
        s = list_schedule(
            g, self.durations(g), max_concurrent_ops=2, max_parked=mp
        )
        assert len(s) == len(g)
        s.validate_precedence(g)


#: Interval digests of the list scheduler (``max_concurrent_ops=3``,
#: footprints from the default binding, as the schedule stage runs it),
#: computed with the scheduler that re-derived readiness by rescanning
#: every operation's producers at every completion event.
INTERVAL_DIGESTS = {
    ("dilution", None): "33a522df4b0ebd53",
    ("dilution", 2): "33a522df4b0ebd53",
    ("ivd", None): "d01a5801f4382af1",
    ("ivd", 2): "7a33e5ba2302393f",
    ("pcr", None): "d23814dc58be7093",
    ("pcr", 2): "d23814dc58be7093",
    ("tree16", None): "b6b0124b3d7acdce",
    ("tree16", 2): "8affaa5e7c07cd4d",
    ("tree8", None): "b779619f16c73f52",
    ("tree8", 2): "e8f814525709b7ca",
    ("gen:mix-tree:n=64:seed=1", None): "fb1b4fa3e72c12ca",
    ("gen:mix-tree:n=64:seed=1", 2): "6b0b3f408c49253d",
    ("gen:diamond:n=64:seed=1", None): "259239ef4c7ec2b8",
    ("gen:diamond:n=64:seed=1", 2): "4512f32c54dc82bc",
    ("gen:dilution-ladder:n=64:seed=1", None): "fc4431bb67b13fe5",
    ("gen:dilution-ladder:n=64:seed=1", 2): "f58cf2e6eb7197e0",
    ("gen:panel:n=64:seed=1", None): "487dc50b8c43c3ec",
    ("gen:panel:n=64:seed=1", 2): "50c894b5f37fe047",
    ("gen:mixed:n=64:seed=1", None): "c811c09f0f3429aa",
    ("gen:mixed:n=64:seed=1", 2): "e5be27c4a034afaa",
    ("gen:mix-tree:n=100:seed=1", None): "e8d8f5892c961e85",
    ("gen:mix-tree:n=100:seed=1", 2): "5b20f73bdd57f794",
    ("gen:diamond:n=100:seed=1", None): "e250fcffdf317d9c",
    ("gen:diamond:n=100:seed=1", 2): "39e7950480506ea4",
    ("gen:dilution-ladder:n=100:seed=1", None): "db6356a790f456e4",
    ("gen:dilution-ladder:n=100:seed=1", 2): "357fb641c0a02b8c",
    ("gen:panel:n=100:seed=1", None): "1845e817d95b3ed0",
    ("gen:panel:n=100:seed=1", 2): "0e3356d8c0402194",
    ("gen:mixed:n=100:seed=1", None): "166002123bdd0444",
    ("gen:mixed:n=100:seed=1", 2): "980a547af9711a94",
    ("gen:mix-tree:n=250:seed=1", None): "6e02ae107826dbe8",
    ("gen:mix-tree:n=250:seed=1", 2): "fcbf399dff54ff00",
    ("gen:diamond:n=250:seed=1", None): "d3bdf246bf298630",
    ("gen:diamond:n=250:seed=1", 2): "d9a81f9e5816f123",
    ("gen:dilution-ladder:n=250:seed=1", None): "8f63793ef4fe9dc0",
    ("gen:dilution-ladder:n=250:seed=1", 2): "ca1d24f4cb0577ab",
    ("gen:panel:n=250:seed=1", None): "24ab31ea5084617f",
    ("gen:panel:n=250:seed=1", 2): "e8cffaaa192792e5",
    ("gen:mixed:n=250:seed=1", None): "660b1f41dbf09d2e",
    ("gen:mixed:n=250:seed=1", 2): "6dde22b540c2b241",
}


@pytest.mark.parametrize(
    "name,max_parked", sorted(INTERVAL_DIGESTS, key=lambda k: (k[0], k[1] or 0))
)
def test_list_schedule_intervals_pinned(name, max_parked):
    graph, explicit = build_assay(name)
    context = SynthesisContext(graph=graph, explicit_binding=explicit)
    BindStage().run(context)
    footprints = {op: spec.footprint_area for op, spec in context.binding.items()}
    schedule = list_schedule(
        graph, context.binding.durations(), max_concurrent_ops=3,
        footprints=footprints, max_parked=max_parked,
    )
    rows = sorted((op, iv.start, iv.stop) for op, iv in schedule.items())
    digest = hashlib.sha256(repr(rows).encode()).hexdigest()[:16]
    assert digest == INTERVAL_DIGESTS[name, max_parked]


class TestScheduleContainer:
    def make(self) -> Schedule:
        return Schedule({
            "a": Interval(0, 5), "b": Interval(5, 9), "c": Interval(2, 7),
        })

    def test_lookup(self):
        s = self.make()
        assert s.interval("a") == Interval(0, 5)
        assert s.start("b") == 5 and s.stop("b") == 9

    def test_missing_op(self):
        with pytest.raises(ScheduleError):
            self.make().interval("zzz")

    def test_items_sorted_by_start(self):
        assert [op for op, _ in self.make().items()] == ["a", "c", "b"]

    def test_makespan(self):
        assert self.make().makespan == 9

    def test_event_times(self):
        assert self.make().event_times() == [0, 2, 5, 7, 9]

    def test_active_at(self):
        s = self.make()
        assert s.active_at(3) == ["a", "c"]
        assert s.active_at(5) == ["b", "c"]  # half-open: a retired

    def test_concurrency_profile(self):
        s = self.make()
        profile = dict(s.concurrency_profile())
        assert profile[0] == 1 and profile[2] == 2 and profile[9] == 0

    def test_cell_demand_profile(self):
        s = self.make()
        demand = dict(s.cell_demand_profile({"a": 10, "b": 20, "c": 5}))
        assert demand[2] == 15
        assert demand[5] == 25

    def test_precedence_validation_failure(self):
        g = chain(2)
        bad = Schedule({"op0": Interval(0, 5), "op1": Interval(3, 6)})
        with pytest.raises(ScheduleError, match="precedence"):
            bad.validate_precedence(g)

    def test_precedence_needs_all_ops(self):
        g = chain(2)
        partial = Schedule({"op0": Interval(0, 5)})
        with pytest.raises(ScheduleError):
            partial.validate_precedence(g)

    def test_integerized_snaps_floats(self):
        s = Schedule({"a": Interval(0.0000000001, 4.9999999999)})
        snapped = integerized(s)
        assert snapped.interval("a") == Interval(0, 5)
