"""Checkpoint/resume round-trips and sweep determinism.

The core invariant of the online-recovery design: resumption is
deterministic replay, so checkpointing at *any* instant and resuming
with no new fault must reproduce the original simulation trace **bit
for bit** — same events (droplet ids included), same realized finishes,
same transport accounting. Property-tested over random checkpoint
instants; plus the recovery sweep preset's jobs-invariance and resume
equivalence (its log is byte-identical for any worker count).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.assay.catalog import build_assay
from repro.placement.annealer import AnnealingParams
from repro.placement.sa_placer import SimulatedAnnealingPlacer
from repro.sim.engine import BiochipSimulator
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
def test_checkpoint_resume_reproduces_trace_bit_identically(synthesized, fraction):
    """Checkpoint at any t, resume with no new fault -> original trace."""
    sim, baseline = synthesized
    t = fraction * baseline.nominal_makespan
    checkpoint = sim.checkpoint(t)
    checkpoint.validate(sim.schedule)
    resumed = sim.run(faults=checkpoint.faults)
    assert resumed.events == baseline.events
    assert resumed.realized_finish == baseline.realized_finish
    assert resumed.total_transport_cells == baseline.total_transport_cells
    assert resumed.planned_transports == baseline.planned_transports
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
    """A new fault strictly after the checkpoint cannot rewrite the past."""
    sim, baseline = synthesized
    t = 0.6 * baseline.nominal_makespan
    ck = sim.checkpoint(t)
    # A boundary-lane cell: fault-tolerant enough to keep the run alive.
    resumed = sim.run(faults=[*ck.faults, (t + 0.5, (1, 1))])
    assert tuple(e for e in resumed.events if e.time <= t) == ck.events_prefix


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


# -- corrupted / truncated checkpoints ----------------------------------------


class TestCheckpointValidation:
    """A mangled checkpoint must raise RecoveryError naming the
    inconsistency — never a bare KeyError/IndexError from deep inside
    the replay (checkpoints cross process and serialization
    boundaries)."""

    @pytest.fixture()
    def ck(self, synthesized):
        import dataclasses

        sim, baseline = synthesized
        checkpoint = sim.checkpoint(0.5 * baseline.nominal_makespan)
        return sim, checkpoint, dataclasses.replace

    def test_intact_checkpoint_validates_and_resumes(self, ck):
        sim, checkpoint, _ = ck
        checkpoint.validate(sim.schedule)
        assert sim.run(faults=checkpoint.faults).completed

    def test_negative_time_rejected(self, ck):
        from repro.util.errors import RecoveryError

        sim, checkpoint, replace = ck
        with pytest.raises(RecoveryError, match="must be >= 0"):
            replace(checkpoint, time_s=-1.0).validate(sim.schedule)

    def test_duplicate_classification_rejected(self, ck):
        from repro.util.errors import RecoveryError

        sim, checkpoint, replace = ck
        dup = checkpoint.completed[0]
        mangled = replace(checkpoint, pending=(*checkpoint.pending, dup))
        with pytest.raises(RecoveryError, match="classified twice"):
            mangled.validate(sim.schedule)

    def test_missing_operation_rejected(self, ck):
        from repro.util.errors import RecoveryError

        sim, checkpoint, replace = ck
        mangled = replace(checkpoint, pending=checkpoint.pending[1:])
        with pytest.raises(RecoveryError, match="does not partition"):
            mangled.validate(sim.schedule)

    def test_unknown_operation_rejected(self, ck):
        from repro.util.errors import RecoveryError

        sim, checkpoint, replace = ck
        mangled = replace(
            checkpoint, pending=(*checkpoint.pending, "op-from-another-assay")
        )
        with pytest.raises(RecoveryError, match="does not partition"):
            mangled.validate(sim.schedule)

    def test_started_op_without_realized_interval_rejected(self, ck):
        from repro.util.errors import RecoveryError

        sim, checkpoint, replace = ck
        realized = dict(checkpoint.realized)
        realized.pop(checkpoint.completed[0])
        mangled = replace(checkpoint, realized=realized)
        with pytest.raises(RecoveryError, match="no realized interval"):
            mangled.validate(sim.schedule)

    def test_backwards_interval_rejected(self, ck):
        from repro.util.errors import RecoveryError

        sim, checkpoint, replace = ck
        op = checkpoint.completed[0]
        realized = dict(checkpoint.realized)
        start, finish = realized[op]
        realized[op] = (finish + 1.0, start)
        with pytest.raises(RecoveryError, match="backwards"):
            replace(checkpoint, realized=realized).validate(sim.schedule)

    def test_completed_op_finishing_in_the_future_rejected(self, ck):
        from repro.util.errors import RecoveryError

        sim, checkpoint, replace = ck
        op = checkpoint.completed[0]
        realized = dict(checkpoint.realized)
        start, _ = realized[op]
        realized[op] = (start, checkpoint.time_s + 100.0)
        with pytest.raises(RecoveryError, match="after the checkpoint instant"):
            replace(checkpoint, realized=realized).validate(sim.schedule)

    def test_fault_after_checkpoint_instant_rejected(self, ck):
        from repro.util.errors import RecoveryError

        sim, checkpoint, replace = ck
        mangled = replace(
            checkpoint,
            faults=(*checkpoint.faults, (checkpoint.time_s + 5.0, (1, 1))),
        )
        with pytest.raises(RecoveryError, match="faults after"):
            mangled.validate(sim.schedule)

    def test_stale_event_prefix_rejected(self, ck):
        import dataclasses as dc

        from repro.util.errors import RecoveryError

        sim, checkpoint, replace = ck
        late = dc.replace(
            checkpoint.events_prefix[-1], time=checkpoint.time_s + 9.0
        )
        mangled = replace(
            checkpoint, events_prefix=(*checkpoint.events_prefix, late)
        )
        with pytest.raises(RecoveryError, match="stale or truncated"):
            mangled.validate(sim.schedule)

    def test_parked_droplet_from_unknown_op_rejected(self, ck):
        from repro.geometry import Point
        from repro.util.errors import RecoveryError

        sim, checkpoint, replace = ck
        positions = dict(checkpoint.droplet_positions)
        positions["phantom-op"] = Point(3, 3)
        mangled = replace(checkpoint, droplet_positions=positions)
        with pytest.raises(RecoveryError, match="parked droplets"):
            mangled.validate(sim.schedule)


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

    # The pcr unit fails with a task-scoped unpicklable exception on
    # its only attempt; its scenarios must appear as keyed failure
    # records while the dilution unit is unharmed.
    chaos = ChaosPolicy.explicit_plan({(0, 0): "unpicklable"})
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
