"""The fault taxonomy's hard contracts.

Three properties carry the closed-loop story:

1. **Reproducibility** — the same seed yields the bit-identical event
   stream, from the same process instance or a freshly-built twin.
   This is what makes sweeps jobs-invariant.
2. **Stream invariants** — sorted times, in-bounds cells, strictly
   alternating fail/clear per cell (no double-fail, no clear of a
   healthy cell).
3. **Engine invariance** — a realized fail/clear timeline replayed on
   the discrete-event engine and the stepped oracle produces
   bit-identical simulation reports.
"""

from __future__ import annotations

from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import SteppedSimulator

from repro.assay.catalog import build_assay
from repro.fault.models import (
    CLEAR,
    FAIL,
    FAULT_MODELS,
    ClusteredFaults,
    FaultEvent,
    PermanentStuckAt,
    WearOutProcess,
    actuation_counts,
    build_fault_process,
    defect_cells,
    wearout_weight_fn,
)
from repro.geometry import Point
from repro.placement.annealer import AnnealingParams
from repro.placement.sa_placer import SimulatedAnnealingPlacer
from repro.sim.engine import BiochipSimulator
from repro.synthesis.flow import SynthesisFlow


class TestFaultEvent:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            FaultEvent(1.0, Point(1, 1), "smolder")

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError, match="time"):
            FaultEvent(-0.1, Point(1, 1))

    def test_orderable_by_time_first(self):
        early = FaultEvent(1.0, Point(9, 9))
        late = FaultEvent(2.0, Point(1, 1))
        assert sorted([late, early]) == [early, late]

    def test_dict_roundtrip(self):
        e = FaultEvent(3.25, Point(4, 5), CLEAR, cause="transient")
        assert FaultEvent.from_dict(e.to_dict()) == e


class TestBuildRegistry:
    def test_unknown_model_is_a_value_error(self):
        with pytest.raises(ValueError, match="unknown fault model"):
            build_fault_process("meteor", 8, 8, 10.0)

    @pytest.mark.parametrize("name", sorted(FAULT_MODELS))
    def test_every_model_realizes(self, name):
        events = build_fault_process(name, 8, 8, 20.0).realize(3)
        assert all(isinstance(e, FaultEvent) for e in events)


@st.composite
def _processes(draw):
    name = draw(st.sampled_from(sorted(FAULT_MODELS)))
    width = draw(st.integers(min_value=3, max_value=12))
    height = draw(st.integers(min_value=3, max_value=12))
    horizon = draw(st.floats(min_value=1.0, max_value=100.0))
    return name, width, height, horizon


class TestReproducibility:
    @given(spec=_processes(), seed=st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=60, deadline=None)
    def test_same_seed_bit_identical_stream(self, spec, seed):
        name, width, height, horizon = spec
        process = build_fault_process(name, width, height, horizon)
        twin = build_fault_process(name, width, height, horizon)
        first = process.realize(seed)
        assert first == process.realize(seed)
        assert first == twin.realize(seed)

    @given(spec=_processes(), seed=st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=60, deadline=None)
    def test_stream_invariants(self, spec, seed):
        name, width, height, horizon = spec
        events = build_fault_process(name, width, height, horizon).realize(seed)
        assert list(events) == sorted(events, key=lambda e: e.time_s)
        failed: set[Point] = set()
        for e in events:
            assert 1 <= e.cell.x <= width and 1 <= e.cell.y <= height
            if e.kind == FAIL:
                assert e.cell not in failed
                failed.add(e.cell)
            else:
                assert e.cell in failed
                failed.discard(e.cell)


class TestWearOut:
    def test_hazard_biases_toward_actuated_cells(self):
        """With all the actuation on one cell, that cell must dominate
        the failure draws — deterministically, over a fixed seed range."""
        hot = Point(2, 2)
        process = WearOutProcess(
            5, 5, horizon_s=50.0,
            actuation_counts={hot: 500},
            hazard_scale=5.0,
        )
        picks = [e.cell for s in range(60) for e in process.realize(s)]
        assert picks, "hazard_scale=5 should realize at least some failures"
        assert picks.count(hot) / len(picks) > 0.8

    def test_empty_realization_is_valid(self):
        # Tiny hazard: the exponential draw lands past the horizon.
        process = WearOutProcess(5, 5, horizon_s=1.0, hazard_scale=1e-6)
        assert process.realize(1) == ()

    def test_counts_from_placement_and_plan(self, sa_result):
        counts = actuation_counts(sa_result.placement)
        assert counts and all(v >= 1 for v in counts.values())
        # Every counted cell is under some module footprint.
        covered = {
            (c.x, c.y)
            for pm in sa_result.placement
            for c in pm.footprint.cells()
        }
        assert {(p.x, p.y) for p in counts} <= covered

    def test_weight_fn_lifts_counts(self):
        fn = wearout_weight_fn({Point(1, 1): 9}, baseline=1.0)
        assert fn(Point(1, 1)) == 10.0
        assert fn(Point(3, 3)) == 1.0
        with pytest.raises(ValueError, match="baseline"):
            wearout_weight_fn({}, baseline=-1.0)


class TestCluster:
    @given(seed=st.integers(min_value=0, max_value=500))
    @settings(max_examples=40, deadline=None)
    def test_cluster_is_simultaneous_and_tight(self, seed):
        process = ClusteredFaults(10, 10, horizon_s=30.0, cluster_size=3, radius=1)
        events = process.realize(seed)
        assert 1 <= len(events) <= 3
        assert len({e.time_s for e in events}) == 1
        cells = [e.cell for e in events]
        spread = max(
            max(abs(a.x - b.x), abs(a.y - b.y)) for a in cells for b in cells
        )
        assert spread <= 2  # everyone within radius 1 of the seed cell


class TestPermanentBridge:
    def test_fault_pattern_lifts_to_process(self):
        """A resolved defect pattern is the degenerate permanent
        process: same cells, all failing at the requested instant,
        independent of the RNG."""
        cells = defect_cells("pair", 9, 9)
        process = PermanentStuckAt.from_cells(cells, 9, 9, horizon_s=10.0, time_s=2.5)
        for seed in (0, 1, 999):
            events = process.realize(seed)
            assert [e.cell for e in events] == list(cells)
            assert all(e.time_s == 2.5 and e.kind == FAIL for e in events)

    def test_cluster_pattern_matches_process(self):
        cells = defect_cells("cluster", 10, 10)
        assert cells == defect_cells("cluster", 10, 10)  # deterministic
        realized = {
            e.cell
            for e in ClusteredFaults(10, 10, horizon_s=1.0).realize(2005)
            if e.kind == FAIL
        }
        assert set(cells) == realized


# ---------------------------------------------------------------------------
# Engine invariance: realized fail/clear timelines replay identically
# on the discrete-event engine and the stepped oracle.
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _synthesized(assay: str):
    graph, explicit = build_assay(assay)
    flow = SynthesisFlow(
        placer=SimulatedAnnealingPlacer(params=AnnealingParams.fast(), seed=11)
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


def _comparable(report) -> tuple:
    return (
        report.to_dict(),
        report.events,
        [(r.op_id, r.old.footprint, r.new.footprint) for r in report.relocations],
    )


class TestEngineInvariance:
    @given(
        model=st.sampled_from(sorted(FAULT_MODELS)),
        seed=st.integers(min_value=0, max_value=200),
    )
    @settings(max_examples=20, deadline=None)
    def test_realized_timeline_replays_identically(self, model, seed):
        event_sim = _simulator("pcr", "event")
        stepped_sim = _simulator("pcr", "stepped")
        width, height = event_sim.placement.array_dims()
        horizon = event_sim.schedule.makespan
        process = build_fault_process(model, width, height, horizon)
        timeline = [
            (e.time_s, event_sim.sim_cell(e.cell), e.kind)
            for e in process.realize(seed)
        ]
        event_report = event_sim.run(faults=timeline)
        stepped_report = stepped_sim.run(faults=timeline)
        assert _comparable(event_report) == _comparable(stepped_report)
