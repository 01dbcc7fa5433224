"""Checkpoint/resume round-trips and sweep determinism.

The core invariant of the online-recovery design: resumption is
deterministic, so checkpointing at *any* instant and resuming with no
new fault, by a replay from t=0 or by continuing the checkpoint's
report, must reproduce the original simulation trace **bit for bit** —
same events (droplet ids included), same realized finishes, same
transport accounting. Property-tested over random checkpoint
instants; plus the recovery sweep preset's jobs-invariance and resume
equivalence (its log is byte-identical for any worker count).
"""

from __future__ import annotations

import math
from functools import lru_cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import reference_checkpoint_at

from repro.assay.catalog import BUNDLED_ASSAYS, build_assay
from repro.geometry import Point
from repro.placement.annealer import AnnealingParams
from repro.placement.sa_placer import SimulatedAnnealingPlacer
from repro.sim.engine import BiochipSimulator, checkpoint_at
from repro.synthesis.flow import SynthesisFlow
from repro.util.errors import SimulationError
from repro.workload.campaign import CampaignRunner, recovery_sweep_preset


@pytest.fixture(scope="module", params=["pcr", "dilution"])
def synthesized(request):
    """One routed synthesis per assay, shared across the module."""
    graph, binding = build_assay(request.param)
    flow = SynthesisFlow(
        placer=SimulatedAnnealingPlacer(params=AnnealingParams.fast(), seed=7),
        route=True,
    )
    result = flow.run(graph, explicit_binding=binding)
    sim = BiochipSimulator(
        graph,
        result.schedule,
        result.binding,
        result.placement_result.placement,
        result.chip,
        routing_plan=result.routing_plan,
    )
    baseline = sim.run()
    assert baseline.completed
    return sim, baseline


@settings(max_examples=25, deadline=None)
@given(fraction=st.floats(min_value=0.0, max_value=1.1, allow_nan=False))
@example(fraction=0.5)
def test_checkpoint_resume_reproduces_trace_bit_identically(synthesized, fraction):
    """Checkpoint at any t, resume with no new fault -> original trace,
    whether replayed from t=0 or continued from the checkpoint's report,
    which then has nothing left to dispatch: with no new fault, the
    whole run is history."""
    sim, baseline = synthesized
    t = fraction * baseline.nominal_makespan
    checkpoint = sim.checkpoint(t)
    replayed = sim.run(faults=checkpoint.faults)
    continued = sim.run(checkpoint.faults, resume=checkpoint.report)
    for resumed in (replayed, continued):
        assert resumed.events == baseline.events
        assert resumed.realized_finish == baseline.realized_finish
        assert resumed.total_transport_cells == baseline.total_transport_cells
        assert resumed.planned_transports == baseline.planned_transports
        assert resumed.position_log == baseline.position_log
    assert (replayed.dispatched, continued.dispatched) == (len(baseline.realized), 0)
    # The checkpoint's event prefix is exactly the trace up to t.
    assert checkpoint.events_prefix == tuple(
        e for e in baseline.events if e.time <= t
    )


@settings(max_examples=15, deadline=None)
@given(fraction=st.floats(min_value=0.0, max_value=0.99, allow_nan=False))
def test_checkpoint_classification_partitions_the_schedule(synthesized, fraction):
    sim, baseline = synthesized
    t = fraction * baseline.nominal_makespan
    ck = sim.checkpoint(t)
    buckets = (*ck.completed, *ck.in_flight, *ck.pending)
    assert sorted(buckets) == sorted(ck.realized)  # disjoint and exhaustive
    for op in ck.completed:
        assert ck.realized[op][1] <= t
    for op in ck.in_flight:
        start, finish = ck.realized[op]
        assert start <= t < finish
    for op in ck.pending:
        assert ck.realized[op][0] > t


def test_run_is_reentrant(synthesized):
    """Two runs of the same simulator are bit-identical (reset state:
    array faults, reservoir rotation, droplet ids)."""
    sim, baseline = synthesized
    again = sim.run()
    assert again.events == baseline.events
    assert again.realized_finish == baseline.realized_finish


def test_resume_prefix_is_stable_under_new_faults(synthesized):
    """A new fault strictly after the checkpoint cannot rewrite the past,
    and continuing the checkpoint's report gives the full replay."""
    sim, baseline = synthesized
    t = 0.6 * baseline.nominal_makespan
    ck = sim.checkpoint(t)
    # A boundary-lane cell: fault-tolerant enough to keep the run alive.
    faults = [*ck.faults, (t + 0.5, (1, 1))]
    resumed = sim.run(faults=faults)
    assert tuple(e for e in resumed.events if e.time <= t) == ck.events_prefix
    continued = sim.run(faults, resume=ck.report)
    assert (continued.to_dict(), continued.events, continued.position_log) == (
        resumed.to_dict(), resumed.events, resumed.position_log
    )
    assert continued.dispatched < resumed.dispatched


def test_checkpoint_rejects_future_faults_and_failed_runs(synthesized):
    sim, baseline = synthesized
    with pytest.raises(ValueError):
        sim.checkpoint(1.0, faults=[(5.0, (1, 1))])


def test_checkpoint_to_dict_is_json_safe(synthesized):
    import json

    sim, baseline = synthesized
    ck = sim.checkpoint(0.5 * baseline.nominal_makespan)
    payload = json.dumps(ck.to_dict())
    assert "completed" in payload


def test_checkpoint_of_failed_run_raises():
    graph, binding = build_assay("pcr")
    flow = SynthesisFlow(
        placer=SimulatedAnnealingPlacer(params=AnnealingParams.fast(), seed=7)
    )
    result = flow.run(graph, explicit_binding=binding)
    sim = BiochipSimulator(
        graph,
        result.schedule,
        result.binding,
        result.placement_result.placement,
        result.chip,
    )
    # Kill every module of the whole array at t=0: unrecoverable.
    w, h = result.placement_result.array_dims
    faults = [
        (0.0, result.chip.cell((x, y))) for x in range(1, w + 1) for y in range(1, h + 1)
    ]
    with pytest.raises(SimulationError):
        sim.checkpoint(10.0, faults=faults)


# -- the lazy cut against the eager reference ---------------------------------

#: Everything a checkpoint exposes about the live state.
_VIEWS = (
    "time_s", "faults", "completed", "in_flight", "pending", "realized",
    "droplet_positions", "events_prefix", "nominal_makespan",
)


@lru_cache(maxsize=None)
def _bundled(assay: str) -> BiochipSimulator:
    graph, binding = build_assay(assay)
    flow = SynthesisFlow(
        placer=SimulatedAnnealingPlacer(params=AnnealingParams.fast(), seed=7),
        route=True,
    )
    result = flow.run(graph, explicit_binding=binding)
    return BiochipSimulator(
        graph,
        result.schedule,
        result.binding,
        result.placement_result.placement,
        result.chip,
        routing_plan=result.routing_plan,
    )


def _mid_run_fault(sim: BiochipSimulator) -> list:
    """The first module fault, at the middle of its module's interval,
    whose run completes (the module is relocated mid-operation)."""
    for op in sorted(pm.op_id for pm in sim.placement):
        iv = sim.schedule.interval(op)
        faults = [((iv.start + iv.stop) / 2, sim.module_cell(op))]
        if sim.report(faults).completed:
            return faults
    raise AssertionError("no module fault leaves the run completed")


def _boundary_instants(report) -> list[float]:
    """Just before, at and just after every realized op boundary and
    droplet move of *report*, plus t=0 and past the end."""
    edges = {t for iv in report.realized.values() for t in iv}
    edges |= {t for t, _, _ in report.position_log}
    instants = {0.0, report.realized_makespan + 1.0}
    for t in edges:
        instants |= {math.nextafter(t, -math.inf), t, math.nextafter(t, math.inf)}
    return sorted(instants)


@pytest.mark.parametrize("assay", sorted(BUNDLED_ASSAYS))
def test_lazy_checkpoint_equals_the_eager_cut(assay):
    """On every bundled assay, nominal and with a mid-run fault, at
    instants around every op boundary: each view the checkpoint reads
    off its report equals the eager reference cut's, and so does
    ``to_dict()``. Mutating a returned view changes neither the
    memoized report nor a second checkpoint of the same instant."""
    sim = _bundled(assay)
    for faults in ([], _mid_run_fault(sim)):
        report = sim.report(faults)
        assert report.completed
        before = (dict(report.realized), report.position_log, list(report.events))
        for t in _boundary_instants(report):
            checkpoint = checkpoint_at(report, t, faults)
            reference = reference_checkpoint_at(report, t, faults)
            for view in _VIEWS:
                assert getattr(checkpoint, view) == getattr(reference, view), view
            assert checkpoint.to_dict() == reference.to_dict()

            checkpoint.realized.clear()
            checkpoint.droplet_positions["phantom-op"] = Point(1, 1)
            checkpoint.droplet_positions.clear()
            assert checkpoint.realized == reference.realized
            assert checkpoint.droplet_positions == reference.droplet_positions
            again = checkpoint_at(sim.report(faults), t, faults)
            assert again == checkpoint and again.to_dict() == reference.to_dict()
        assert sim.report(faults) is report
        assert (dict(report.realized), report.position_log, report.events) == before


def test_checkpoints_differ_when_a_view_differs(synthesized):
    """Equality compares the instant, the faults and every view, not
    the report object: two cuts of one report at different instants
    differ, and the same cut of an equal replay is equal."""
    sim, baseline = synthesized
    t = 0.5 * baseline.nominal_makespan
    checkpoint = sim.checkpoint(t)
    assert checkpoint == checkpoint_at(baseline, t)
    assert checkpoint != sim.checkpoint(0.6 * baseline.nominal_makespan)
    assert checkpoint != checkpoint_at(baseline, t, [(0.0, (1, 1), "clear")])


# -- what a cut guarantees by construction ------------------------------------


class TestCheckpointInvariants:
    """Every consistency rule a checkpoint must satisfy holds of each
    cut, at instants across the run: its views are read off one
    completed report, and none of them can be replaced on its own."""

    FRACTIONS = (0.0, 0.25, 0.5, 0.75, 1.0, 1.1)

    @staticmethod
    def _cuts(sim, faults=()):
        report = sim.report(faults)
        for fraction in TestCheckpointInvariants.FRACTIONS:
            yield sim.checkpoint(fraction * report.realized_makespan, faults=faults)

    def test_classification_names_every_scheduled_operation_once(self, synthesized):
        sim, _ = synthesized
        scheduled = set(sim.schedule.op_ids())
        for ck in self._cuts(sim):
            buckets = (*ck.completed, *ck.in_flight, *ck.pending)
            assert len(buckets) == len(set(buckets))
            assert set(buckets) == scheduled
            assert set(ck.realized) == scheduled

    def test_realized_intervals_run_forwards(self, synthesized):
        sim, _ = synthesized
        for ck in self._cuts(sim):
            for op, (start, finish) in ck.realized.items():
                assert start <= finish, op

    def test_started_operations_started_by_the_instant(self, synthesized):
        sim, _ = synthesized
        for ck in self._cuts(sim):
            for op in ck.completed:
                assert ck.realized[op][1] <= ck.time_s
            for op in ck.in_flight:
                assert ck.realized[op][0] <= ck.time_s
            for op in ck.pending:
                assert ck.realized[op][0] > ck.time_s

    def test_past_the_end_everything_is_completed(self, synthesized):
        sim, baseline = synthesized
        ck = sim.checkpoint(baseline.realized_makespan + 1.0)
        assert set(ck.completed) == set(sim.schedule.op_ids())
        assert ck.in_flight == ck.pending == ()
        assert ck.events_prefix == tuple(baseline.events)

    def test_event_prefix_is_the_logs_prefix_up_to_the_instant(self, synthesized):
        sim, baseline = synthesized
        for ck in self._cuts(sim):
            n = len(ck.events_prefix)
            assert ck.events_prefix == tuple(baseline.events[:n])
            assert all(e.time <= ck.time_s for e in ck.events_prefix)
            assert all(e.time > ck.time_s for e in baseline.events[n:])

    def test_parked_droplets_come_from_completed_producers(self, synthesized):
        """A parked product's producer has finished; a droplet inside a
        running module is represented by the module, not listed."""
        sim, _ = synthesized
        for ck in self._cuts(sim):
            assert set(ck.droplet_positions) <= set(ck.completed)
            assert not set(ck.droplet_positions) & set(ck.in_flight)

    def test_recorded_faults_fired_by_the_instant(self, synthesized):
        sim, _ = synthesized
        faults = _mid_run_fault(sim)
        (fault_t, _), = faults
        report = sim.report(faults)
        for t in (fault_t, 0.5 * (fault_t + report.realized_makespan)):
            ck = sim.checkpoint(t, faults=faults)
            assert ck.report is report
            assert [(ft, tuple(cell)) for ft, cell, _ in ck.faults] == faults
            assert all(ft <= ck.time_s for ft, _, _ in ck.faults)

    def test_views_are_not_fields(self, synthesized):
        """A view cannot be swapped out of step with the report: the
        dataclass declares only the instant, the faults and the report,
        and a frozen checkpoint refuses assignment to a view."""
        import dataclasses

        sim, baseline = synthesized
        ck = sim.checkpoint(0.5 * baseline.nominal_makespan)
        assert [f.name for f in dataclasses.fields(ck)] == [
            "time_s", "faults", "report",
        ]
        with pytest.raises(TypeError):
            dataclasses.replace(ck, pending=ck.pending[1:])
        with pytest.raises(AttributeError):
            ck.completed = ()
        assert dataclasses.replace(ck) == ck


# -- sweep determinism across --jobs ------------------------------------------

def sweep_config(assays=("pcr",), sites=("pending-module", "street")):
    return recovery_sweep_preset(assays, arrivals=(0.5,), sites=sites, seed=11)


def sweep_log(path, assays=("pcr",), sites=("pending-module", "street"), **kw):
    CampaignRunner(sweep_config(assays, sites)).run(path, **kw)
    return path.read_bytes()


def test_sweep_results_identical_across_jobs(tmp_path):
    def run(jobs: int) -> bytes:
        return sweep_log(
            tmp_path / f"j{jobs}.jsonl", ("pcr", "dilution"),
            ("pending-module",), jobs=jobs,
        )

    assert run(1) == run(2)


# -- sweep journaling, resume, and structured failures ------------------------


def test_sweep_journal_and_full_resume_bit_identical(tmp_path):
    from repro.exec import load_journal
    from repro.workload.campaign import CAMPAIGN_JOURNAL_KIND

    journal = tmp_path / "sweep.journal"
    original = sweep_log(tmp_path / "a.jsonl", jobs=1, journal_path=journal)
    assert set(load_journal(journal, kind=CAMPAIGN_JOURNAL_KIND)) == {
        "pcr|auto|permanent|ideal|event|at=0.5",
        "pcr|auto|permanent|ideal|event|at=0.5|site=street",
    }
    resumed = sweep_log(tmp_path / "b.jsonl", jobs=1, resume_from=journal)
    assert resumed == original


def test_sweep_partial_resume_preserves_the_seed_stream(tmp_path):
    # Only the first scenario is journaled; the recomputed rest must
    # draw exactly the seeds an uninterrupted run would (each scenario
    # seed hashes the campaign seed with the scenario key).
    journal = tmp_path / "sweep.journal"
    original = sweep_log(tmp_path / "a.jsonl", jobs=1, journal_path=journal)
    lines = journal.read_text().splitlines(keepends=True)
    partial = tmp_path / "partial.journal"
    partial.write_text(lines[0])
    resumed = sweep_log(tmp_path / "b.jsonl", jobs=1, resume_from=partial)
    assert resumed == original


def test_sweep_crashed_block_yields_structured_failure_records():
    from repro.exec import STATUS_CRASHED
    from repro.testing.chaos import ChaosPolicy

    # The pcr unit's scenarios (tasks 0 and 1) fail with a task-scoped
    # unpicklable exception on their only attempt; they must appear as
    # keyed failure records while the dilution unit is unharmed.
    chaos = ChaosPolicy.explicit_plan({(i, 0): "unpicklable" for i in range(2)})
    report = CampaignRunner(sweep_config(("pcr", "dilution"))).run(
        None, jobs=2, max_retries=0, chaos=chaos
    )
    assert len(report.records) == 4
    failed = [r for r in report.records if r.spec == "pcr"]
    assert len(failed) == 2
    for r in failed:
        assert r.status == STATUS_CRASHED
        assert not r.completed
        assert r.error
        assert r.key in (
            "pcr|auto|permanent|ideal|event|at=0.5",
            "pcr|auto|permanent|ideal|event|at=0.5|site=street",
        )
    assert all(r.status == "ok" for r in report.records if r.spec == "dilution")
    assert "FAILED" in report.scenario_table()
