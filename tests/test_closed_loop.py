"""Closed-loop fault tolerance: detection-driven recovery end to end.

The acceptance properties this file pins:

* zero-noise closed-loop sensing is **bit-identical** to the oracle
  reference (modulo wall-clock recovery timings, which no two runs
  share);
* every bundled assay completes closed-loop — imperfect sensing, no
  oracle — under a single mid-assay permanent fault;
* false alarms are dismissed by the confirmation re-probe and never
  abort a fault-free run;
* a fault every probe missed is caught by the stuck-droplet watchdog
  after the verdict replay exposes it;
* ladder traces follow the rung order, the anneal-free relocate rung
  draws no seed, every rung of a detection shares its one checkpoint,
  and the recovery sweep preset's closed-loop records are
  jobs-invariant.
"""

from __future__ import annotations

import hashlib
import json
import random
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.assay.catalog import BUNDLED_ASSAYS, build_assay
from repro.cli import EXIT_OK, main
from repro.fault.models import FAIL, FaultEvent, scenario_events
from repro.geometry import Point
from repro.placement.annealer import AnnealingParams, SimulatedAnnealing
from repro.placement.sa_placer import SimulatedAnnealingPlacer
from repro.recovery import (
    RECOVERY_RUNGS,
    ClosedLoopController,
    OnlineRecoveryEngine,
    fault_timeline,
)
from repro.recovery import closedloop
from repro.recovery.closedloop import LadderStep
from repro.recovery.engine import pick_fault_cell
from repro.sim.engine import BiochipSimulator
from repro.synthesis.flow import SynthesisFlow
from repro.testing import CapacitiveSensor
from repro.util.errors import RecoveryError, SimulationError, UsageError
from repro.workload.campaign import CampaignRunner, recovery_sweep_preset

#: Wall-clock fields: everything else in the outcome dicts must be
#: bit-identical between the oracle and the zero-noise closed loop.
_TIMING_KEYS = frozenset({"recovery_s", "replace_s", "reroute_s"})


def _strip_timing(value):
    if isinstance(value, dict):
        return {
            k: _strip_timing(v)
            for k, v in value.items()
            if k not in _TIMING_KEYS and k != "detection_mode"
        }
    if isinstance(value, list):
        return [_strip_timing(v) for v in value]
    return value


@lru_cache(maxsize=None)
def _routed(assay: str):
    graph, explicit = build_assay(assay)
    flow = SynthesisFlow(
        placer=SimulatedAnnealingPlacer(params=AnnealingParams.fast(), seed=7),
        route=True,
    )
    return flow.run(graph, explicit_binding=explicit)


def _engine() -> OnlineRecoveryEngine:
    return OnlineRecoveryEngine(annealing=AnnealingParams.fast())


def _count_checkpoints(monkeypatch) -> list[float]:
    """Record the instant of every recovery checkpoint from here on."""
    calls: list[float] = []
    checkpoint_of = OnlineRecoveryEngine.checkpoint_of

    def spy(self, result, fault_time_s, known_faults=()):
        calls.append(fault_time_s)
        return checkpoint_of(self, result, fault_time_s, known_faults)

    monkeypatch.setattr(OnlineRecoveryEngine, "checkpoint_of", spy)
    return calls


def _single_fault(result, fraction: float, target: str, seed: int):
    engine = _engine()
    t = fraction * result.makespan
    checkpoint = engine.checkpoint_of(result, t)
    cell = pick_fault_cell(result, checkpoint, target, rng=seed)
    return (FaultEvent(t, cell, FAIL),)


class TestOracleEquivalence:
    @given(
        fraction=st.sampled_from((0.25, 0.4, 0.6)),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=5, deadline=None)
    def test_zero_noise_closed_loop_is_the_oracle(self, fraction, seed):
        """Perfect sensor + single vote == continuous monitoring: the
        closed loop must reproduce the oracle reference bit-identically
        (wall-clock timings stripped)."""
        result = _routed("pcr")
        events = _single_fault(result, fraction, "pending-module", seed)
        controller = ClosedLoopController(engine=_engine())
        oracle = controller.run(result, events, seed=seed, mode="oracle")
        closed = controller.run(result, events, seed=seed, mode="closed-loop")
        assert oracle.completed
        assert _strip_timing(oracle.to_dict()) == _strip_timing(closed.to_dict())

    def test_default_controller_sensing_is_perfect(self):
        controller = ClosedLoopController(engine=_engine())
        assert controller.sensor.is_perfect
        assert controller.votes == 1

    def test_noisy_default_votes_are_three(self):
        controller = ClosedLoopController(
            engine=_engine(), sensor=CapacitiveSensor(false_positive_rate=0.1)
        )
        assert controller.votes == 3

    def test_even_votes_rejected(self):
        with pytest.raises(RecoveryError, match="odd"):
            ClosedLoopController(engine=_engine(), votes=2)

    def test_unknown_mode_rejected(self):
        controller = ClosedLoopController(engine=_engine())
        with pytest.raises(RecoveryError, match="detection mode"):
            controller.run(_routed("pcr"), (), mode="telepathy")


class TestFaultTimeline:
    """``fault_timeline`` is the site pick followed by the model's own
    timeline, both drawing from one generator in that order."""

    @pytest.mark.parametrize("model", ["permanent", "intermittent", "cluster"])
    def test_named_site_is_pick_then_scenario_events(self, model):
        result = _routed("pcr")
        t = 0.5 * result.makespan
        engine = _engine()
        rng, expected_rng = random.Random(3), random.Random(3)
        events = fault_timeline(engine, result, model, t, "pending-module", rng)
        cell = pick_fault_cell(
            result, engine.checkpoint_of(result, t), "pending-module",
            rng=expected_rng,
        )
        width, height = result.placement_result.placement.array_dims()
        assert events == scenario_events(
            model, cell, t, result.makespan, width, height, expected_rng
        )
        assert rng.getstate() == expected_rng.getstate()

    def test_explicit_cell_takes_no_checkpoint(self, monkeypatch):
        calls = _count_checkpoints(monkeypatch)
        events = fault_timeline(
            _engine(), _routed("pcr"), "permanent", 4.0, (2, 3), random.Random(0)
        )
        assert events == (FaultEvent(4.0, Point(2, 3), FAIL),)
        assert calls == []


class TestRecoverCommand:
    """Plain ``repro recover`` (no ``--closed-loop``) climbs the same
    rung ladder as every other entry point, detecting from ground
    truth."""

    #: Recovered makespans at the default seed, pinned from the direct
    #: ``replace`` recovery plain ``recover`` ran before it took the
    #: ladder: the ``relocate`` rung reaches the same ones.
    MAKESPANS = {
        "dilution": 55.03248843004628,
        "ivd": 23,
        "pcr": 22.51624421502314,
        "tree16": 67,
        "tree8": 32.03248843004628,
    }

    def test_every_bundled_assay_completes_at_relocate(self, capsys):
        code = main(["recover", "--fast", "--protocol", "all", "--json"])
        runs = json.loads(capsys.readouterr().out)
        assert code == EXIT_OK
        assert sorted(runs) == sorted(self.MAKESPANS)
        for name, run in runs.items():
            assert run["detection_mode"] == "oracle"
            assert run["completed"] and run["final_rung"] == "relocate"
            (recovery,) = run["recoveries"]
            assert [(s["rung"], s["succeeded"]) for s in recovery["ladder"]] == [
                ("reroute", False), ("relocate", True),
            ]
            assert run["realized_makespan_s"] == self.MAKESPANS[name]


class TestClosedLoopCompletion:
    @pytest.mark.parametrize("assay", sorted(BUNDLED_ASSAYS))
    def test_every_bundled_assay_completes_under_lossy_sensing(self, assay):
        """The headline acceptance: imperfect sensing, no oracle, one
        permanent mid-assay fault — every bundled assay still finishes."""
        result = _routed(assay)
        events = _single_fault(result, 0.5, "pending-module", seed=5)
        controller = ClosedLoopController(
            engine=_engine(),
            sensor=CapacitiveSensor(
                false_positive_rate=0.02, false_negative_rate=0.05
            ),
        )
        outcome = controller.run(result, events, seed=42, mode="closed-loop")
        assert outcome.completed, (assay, outcome.reason)
        assert not outcome.aborted
        assert outcome.realized_makespan_s >= outcome.nominal_makespan_s

    def test_fault_free_noisy_run_never_aborts(self):
        """False alarms are recorded and dismissed, never acted into an
        abort: a healthy chip with a jumpy sensor still finishes."""
        result = _routed("pcr")
        controller = ClosedLoopController(
            engine=_engine(),
            sensor=CapacitiveSensor(false_positive_rate=0.25),
        )
        for seed in (1, 9, 33):
            outcome = controller.run(result, (), seed=seed)
            assert outcome.completed and not outcome.aborted, outcome.reason
            assert all(d.dismissed for d in outcome.false_alarms)
            assert outcome.makespan_penalty_s == 0.0

    def test_watchdog_catches_a_fault_every_probe_missed(self):
        """A near-blind sensor misses a 2x2 dead block; the verdict
        replay fails, the stuck-droplet watchdog names the earliest
        undetected fault, and the ladder still lands the assay."""
        result = _routed("dilution")
        t = 0.3 * result.makespan
        engine = _engine()
        checkpoint = engine.checkpoint_of(result, t)
        seed_cell = pick_fault_cell(result, checkpoint, "pending-module", rng=5)
        width, height = result.placement_result.placement.array_dims()
        block = sorted(
            {
                Point(min(seed_cell.x + dx, width), min(seed_cell.y + dy, height))
                for dx in (0, 1)
                for dy in (0, 1)
            }
        )
        events = tuple(FaultEvent(t, c, FAIL) for c in block)
        blind = ClosedLoopController(
            engine=engine,
            sensor=CapacitiveSensor(false_negative_rate=0.99),
            votes=3,
        )
        outcome = blind.run(result, events, seed=42)
        assert outcome.completed, outcome.reason
        assert outcome.watchdog_rounds >= 1
        assert any(d.via == "watchdog" for d in outcome.detections)
        # Watchdog detections are real faults with the charged latency.
        for det in outcome.detections:
            if det.via == "watchdog":
                assert det.true_cell == det.believed_cell
                assert det.latency_s is not None and det.latency_s > 0


class TestLadder:
    def test_trace_follows_rung_order(self):
        """Rung attempts appear in ladder order, the last one succeeds,
        and the outcome's rung names the step that won."""
        result = _routed("pcr")
        events = _single_fault(result, 0.5, "pending-module", seed=3)
        outcome = ClosedLoopController(engine=_engine()).run(
            result, events, seed=3, mode="oracle"
        )
        assert outcome.completed and outcome.recoveries
        order = {rung: i for i, rung in enumerate(RECOVERY_RUNGS)}
        for recovery in outcome.recoveries:
            trace = recovery.ladder_trace
            assert trace, "every recovery carries its rung-by-rung trace"
            indices = [order[s.rung] for s in trace]
            assert indices == sorted(indices)
            assert trace[-1].succeeded and trace[-1].rung == recovery.rung
            assert all(not s.succeeded for s in trace[:-1])

    def test_street_fault_stops_at_the_first_rung(self):
        """A fault on open street never touches a module footprint, so
        the cheapest rung (suffix re-route) must be the one that lands."""
        result = _routed("pcr")
        events = _single_fault(result, 0.5, "street", seed=3)
        outcome = ClosedLoopController(engine=_engine()).run(
            result, events, seed=3, mode="oracle"
        )
        assert outcome.completed
        assert outcome.final_rung == "reroute"

    def test_pending_fault_lands_at_relocate_without_anneal(self, monkeypatch):
        """A pending-module fault with a fault-free MER site is closed by
        the relocate rung: the paper's single-module relocation, with no
        anneal at all (one that ran would raise here)."""
        def no_anneal(*args, **kwargs):
            raise AssertionError("no rung below replace may anneal")

        monkeypatch.setattr(SimulatedAnnealing, "optimize_incremental", no_anneal)
        result = _routed("pcr")
        events = _single_fault(result, 0.5, "pending-module", seed=3)
        outcome = ClosedLoopController(engine=_engine()).run(
            result, events, seed=3, mode="oracle"
        )
        assert outcome.completed and outcome.final_rung == "relocate"
        (recovery,) = outcome.recoveries
        assert [(s.rung, s.succeeded) for s in recovery.ladder_trace] == [
            ("reroute", False),
            ("relocate", True),
        ]

    def test_relocate_draws_no_seed(self, monkeypatch):
        """ivd, a pending-module fault at 0.3 of the makespan whose hit
        module has no fault-free MER site: relocate fails and replace
        wins. The replace placement's digest was pinned before the
        relocate rung existed (ladder ``reroute -> replace``); it still
        matches only because relocate draws no seed from the run's
        stream, so replace anneals with the seed it always had. The
        three rungs share the detection's one checkpoint."""
        result = _routed("ivd")
        events = _single_fault(result, 0.3, "pending-module", seed=1)
        checkpoints = _count_checkpoints(monkeypatch)
        outcome = ClosedLoopController(engine=_engine()).run(
            result, events, seed=1, mode="oracle"
        )
        assert outcome.completed
        assert len(checkpoints) == len(outcome.detections) == 1
        (recovery,) = outcome.recoveries
        trace = recovery.ladder_trace
        assert [(s.rung, s.succeeded) for s in trace] == [
            ("reroute", False),
            ("relocate", False),
            ("replace", True),
        ]
        assert trace[1].reason.startswith("no fault-free MER site")
        rows = sorted(
            (pm.op_id, pm.x, pm.y, bool(pm.rotated)) for pm in recovery.placement
        )
        digest = hashlib.sha256(repr(rows).encode()).hexdigest()[:16]
        assert digest == "69d8ca562d890939"

    def test_failed_nominal_replay_refuses_every_rung(self, monkeypatch):
        """When the nominal execution cannot be checkpointed, the
        detection's one checkpoint attempt refuses every rung with the
        same reason, in ladder order, and the run aborts."""
        result = _routed("pcr")
        events = _single_fault(result, 0.5, "pending-module", seed=3)
        checkpoints = _count_checkpoints(monkeypatch)

        def broken(self, *args):
            raise SimulationError("no droplet path (injected)")

        monkeypatch.setattr(BiochipSimulator, "_execute", broken)
        steps: list[LadderStep] = []

        class RecordedStep(LadderStep):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                steps.append(self)

        monkeypatch.setattr(closedloop, "LadderStep", RecordedStep)
        outcome = ClosedLoopController(engine=_engine()).run(
            result, events, seed=3, mode="oracle"
        )
        refusal = (
            "nominal execution fails before any fault: cannot checkpoint "
            "a failed run: no droplet path (injected)"
        )
        assert [(s.rung, s.succeeded, s.reason) for s in steps] == [
            *((rung, False, refusal) for rung in RECOVERY_RUNGS),
            ("abort", False, "all recovery rungs exhausted"),
        ]
        assert outcome.aborted and outcome.final_rung == "abort"
        assert outcome.reason.startswith("recovery ladder exhausted")
        assert len(checkpoints) == len(outcome.detections) == 1

    def test_detection_latencies_only_for_real_faults(self):
        result = _routed("pcr")
        events = _single_fault(result, 0.4, "pending-module", seed=8)
        outcome = ClosedLoopController(engine=_engine()).run(
            result, events, seed=8, mode="oracle"
        )
        assert outcome.detection_latencies == (0.0,)


class TestLossySensorPin:
    """The probe path, pinned end to end: a lossy sensor (FPR 0.02, FNR
    0.05) sends every run through test-droplet probes, the fault
    localizer and the watchdog rather than oracle detection (an ideal
    sensor short-circuits to it). The digests of the outcome dicts
    (wall-clock timings stripped) are fixed: a change to how probes see
    the chip's dead cells must leave every outcome unchanged."""

    DIGESTS = {
        ("pcr", "permanent"): "407b54b11f3305db",
        ("pcr", "intermittent"): "6eea21db4ed7db94",
        ("dilution", "permanent"): "b887b5fdace54af9",
        ("dilution", "intermittent"): "a90eecf038981f6d",
        ("ivd", "permanent"): "05f9a2061e581c6c",
        ("ivd", "intermittent"): "e13f86069d651fd9",
    }

    @pytest.mark.parametrize("assay, model", sorted(DIGESTS))
    def test_outcome_is_pinned(self, assay, model):
        result = _routed(assay)
        (first,) = _single_fault(result, 0.45, "pending-module", seed=5)
        width, height = result.placement_result.placement.array_dims()
        events = scenario_events(
            model, first.cell, first.time_s, result.makespan,
            width, height, rng=None,
        )
        controller = ClosedLoopController(
            engine=_engine(),
            sensor=CapacitiveSensor(
                false_positive_rate=0.02, false_negative_rate=0.05
            ),
        )
        outcome = controller.run(result, events, seed=11, mode="closed-loop")
        blob = json.dumps(_strip_timing(outcome.to_dict()), sort_keys=True)
        digest = hashlib.sha256(blob.encode()).hexdigest()[:16]
        assert digest == self.DIGESTS[assay, model]


class TestTimelineOrder:
    def test_unsorted_timeline_runs_as_sorted(self):
        """Regression: pcr, two permanent faults at 0.3 and 0.6 of the
        makespan. Handed over latest-first, the controller used to
        recover at 11.4 s and then again at 5.7 s, on a plan it had
        already rewritten; it now sorts the timeline on entry."""
        result = _routed("pcr")
        makespan = result.makespan
        events = (
            FaultEvent(0.3 * makespan, Point(3, 5), FAIL),
            FaultEvent(0.6 * makespan, Point(5, 5), FAIL),
        )
        controller = ClosedLoopController(engine=_engine())
        ordered = controller.run(result, events, seed=7)
        reversed_ = controller.run(result, events[::-1], seed=7)
        assert [d.detected_at_s for d in ordered.detections] == [
            0.3 * makespan, 0.6 * makespan,
        ]
        assert _strip_timing(reversed_.to_dict()) == _strip_timing(
            ordered.to_dict()
        )


class TestSweepClosedLoop:
    def test_closed_loop_records_are_jobs_invariant(self):
        """Records of the recovery sweep preset are identical for any
        --jobs: they carry no wall-clock fields at all."""
        def run(jobs: int):
            config = recovery_sweep_preset(
                ("pcr",), arrivals=(0.5,), sites=("street", "pending-module"),
                sensor="fpr=0.05,fnr=0.1", seed=13,
            )
            return [r.to_dict() for r in CampaignRunner(config).run(
                None, jobs=jobs).records]

        assert run(1) == run(2)

    def test_rung_frequencies_cover_recovered_records(self):
        config = recovery_sweep_preset(
            ("pcr",), arrivals=(0.5,), sites=("street",),
            fault_model="intermittent", seed=13,
        )
        report = CampaignRunner(config).run(None, jobs=1)
        rungs = [r.recovery["final_rung"] for r in report.records]
        recovered = [r for r in report.records if r.recovery["recoveries"]]
        assert len([g for g in rungs if g is not None]) == len(recovered)
        assert set(rungs) - {None} <= set(RECOVERY_RUNGS) | {"abort"}

    def test_invalid_axes_rejected(self):
        with pytest.raises(UsageError, match="fault model"):
            recovery_sweep_preset(("pcr",), fault_model="meteor")
        with pytest.raises(UsageError, match="fault site"):
            recovery_sweep_preset(("pcr",), sites=("telepathy",))
