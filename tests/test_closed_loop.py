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
from dataclasses import replace
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
from repro.testing import CapacitiveSensor, FaultLocalizer
from repro.testing.test_droplet import free_cell_paths
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


def _count_nominal_replays(monkeypatch, result) -> list:
    """From here on, record the run of every replay of *result*'s own
    design (its routing plan) under no fault: the replay a detection's
    checkpoints are cut from. Wraps whatever ``_execute`` is installed."""
    replays: list = []
    execute = BiochipSimulator._execute

    def spy(self, run):
        if self.routing_plan is result.routing_plan and not run.faults:
            replays.append(run)
        return execute(self, run)

    monkeypatch.setattr(BiochipSimulator, "_execute", spy)
    return replays


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
        # The controller's localizer takes its vote width as given; a
        # tie cannot break a majority, so an even width is refused.
        with pytest.raises(ValueError, match="odd"):
            FaultLocalizer(CapacitiveSensor(false_positive_rate=0.1), votes=2)

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

    @staticmethod
    def _blind_block(assay: str):
        """A near-blind sensor against a 2x2 dead block at 30% of the
        makespan."""
        result = _routed(assay)
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
        )
        return blind.run(result, events, seed=42)

    def test_watchdog_catches_a_fault_every_probe_missed(self):
        """A near-blind sensor misses a 2x2 dead block; the verdict
        replay fails, the stuck-droplet watchdog names the earliest
        undetected fault, and the ladder still lands the assay."""
        outcome = self._blind_block("ivd")
        assert outcome.completed, outcome.reason
        assert outcome.watchdog_rounds >= 1
        assert any(d.via == "watchdog" for d in outcome.detections)
        # Watchdog detections are real faults with the charged latency.
        for det in outcome.detections:
            if det.via == "watchdog":
                assert det.true_cell == det.believed_cell
                assert det.latency_s is not None and det.latency_s > 0

    def test_watchdog_block_the_chip_cannot_hold_aborts(self):
        """On dilution the watchdog catches the block too, but the
        chip has no site left for the module running on it: the ladder
        exhausts and the run aborts, naming the believed cell. (It
        lands only on an array two rows taller than its chip, which no
        recovery may grow.)"""
        outcome = self._blind_block("dilution")
        assert outcome.aborted and not outcome.completed
        assert outcome.reason.startswith(
            "recovery ladder exhausted for believed fault at Point(x=2, y=3)"
        )
        assert any(d.via == "watchdog" for d in outcome.detections)
        ladder = [s.rung for s in outcome.recoveries[-1].ladder_trace]
        assert ladder == ["reroute", "relocate", "replace", "resynth", "abort"]


class TestCheckpointCoverage:
    def test_a_second_detection_keeps_the_history_before_it(self):
        """A later detection checkpoints the recovered design with the
        earlier believed cells dead from t=0. The checkpoint credits the
        plan with covering them, as the rung replays do, so the rung
        replay's events before the detection are the checkpoint's. On
        dilution's cluster fault at 45%, the checkpoint used to replay
        ad hoc what the rungs replayed as planned."""
        result = _routed("dilution")
        engine = _engine()
        events = fault_timeline(
            engine, result, "cluster", 0.45 * result.makespan, "pending-module",
            random.Random("dilution|cluster|0.45"),
        )
        outcome = ClosedLoopController(engine=engine).run(
            result, events, seed=1, mode="oracle"
        )
        assert outcome.completed and len(outcome.recoveries) == 3
        for recovery in outcome.recoveries[1:]:
            t = recovery.checkpoint.time_s
            replayed = tuple(e for e in recovery.sim_report.events if e.time < t)
            checkpointed = tuple(
                e for e in recovery.checkpoint.events_prefix if e.time < t
            )
            assert replayed == checkpointed


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
        three rungs cut their checkpoints from the detection's one
        nominal replay."""
        result = _routed("ivd")
        events = _single_fault(result, 0.3, "pending-module", seed=1)
        replays = _count_nominal_replays(monkeypatch, result)
        outcome = ClosedLoopController(engine=_engine()).run(
            result, events, seed=1, mode="oracle"
        )
        assert outcome.completed
        assert len(replays) == len(outcome.detections) == 1
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
        """When the nominal execution cannot be checkpointed, its one
        failed replay refuses every rung with the same reason, in ladder
        order, and the run aborts."""
        result = _routed("pcr")
        events = _single_fault(result, 0.5, "pending-module", seed=3)

        def broken(self, *args):
            raise SimulationError("no droplet path (injected)")

        monkeypatch.setattr(BiochipSimulator, "_execute", broken)
        replays = _count_nominal_replays(monkeypatch, result)
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
        assert len(replays) == len(outcome.detections) == 1

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
        ("dilution", "permanent"): "aeaae1beba960749",
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


class TestFailedVerdictMakespan:
    def test_failed_sweep_scenario_reports_no_makespan(self, capsys, monkeypatch):
        """Regression: a closed-loop run whose verdict replay fails has
        no realized makespan. pcr's ``at=0.25`` sweep scenario ends in
        "no droplet path"; its verdict report, the outcome and the
        record used to read the nominal 19 s and a 0 s delay/penalty,
        as if the failed run were free."""
        outcomes = []
        run = ClosedLoopController.run

        def spy(self, *args, **kwargs):
            outcomes.append(run(self, *args, **kwargs))
            return outcomes[-1]

        monkeypatch.setattr(ClosedLoopController, "run", spy)
        argv = [
            "recover", "--protocol", "pcr", "--fast", "--sweep",
            "--closed-loop", "--sensor-fpr", "0.05", "--sensor-fnr", "0.1",
        ]
        assert main([*argv, "--json"]) != EXIT_OK
        records = json.loads(capsys.readouterr().out)["records"]
        (failed,) = [r for r in records if r["key"].endswith("|at=0.25")]
        recovery = failed["recovery"]
        assert not recovery["completed"] and not recovery["aborted"]
        assert recovery["reason"].startswith("no droplet path")
        assert recovery["realized_makespan_s"] is None
        assert recovery["makespan_penalty_s"] is None
        # The source: the failed verdict replay itself times no finish.
        (outcome,) = [o for o in outcomes if not o.completed]
        verdict = outcome.verdict
        assert verdict is not None and not verdict.completed
        assert verdict.realized_makespan is None and verdict.delay_s is None
        d = outcome.to_dict()
        assert d["verdict"]["realized_makespan_s"] is None
        assert d["verdict"]["delay_s"] is None
        assert "realized -" in verdict.summary()
        assert outcome.summary().endswith("makespan 19s -> -")
        for record in records:
            if record is not failed:
                assert record["recovery"]["completed"]
                assert record["recovery"]["makespan_penalty_s"] >= 0

        main(argv)
        (row,) = [
            line for line in capsys.readouterr().out.splitlines()
            if "|at=0.25 " in line
        ]
        cells = [c.strip() for c in row.strip(" |").split(" | ")]
        assert cells[1].startswith("FAILED") and cells[3] == "-"

    def test_outcome_without_a_finish_prints_a_dash(self):
        outcome = closedloop.ClosedLoopOutcome(
            detection_mode="closed-loop", completed=False, aborted=False,
            reason="no droplet path", detections=(), false_alarms=(),
            recoveries=(), verdict=None, fault_events=(),
            nominal_makespan_s=19.0,
        )
        assert outcome.summary().endswith("makespan 19s -> -")
        d = outcome.to_dict()
        assert d["realized_makespan_s"] is None
        assert d["makespan_penalty_s"] is None


#: recover-paper's scenario grid: four fault models at two arrivals.
_MODELS = ("permanent", "intermittent", "transient", "cluster")
_ARRIVALS = (0.45, 0.65)
_LOSSY = CapacitiveSensor(false_positive_rate=0.02, false_negative_rate=0.05)


def _count_fault_free_replays(monkeypatch, designs) -> list[int]:
    """Per design, from here on: fault-free replays of its own
    placement and routing plan, on whatever simulator runs them."""
    counts = [0] * len(designs)
    built: list[tuple[BiochipSimulator, int]] = []
    init, run = BiochipSimulator.__init__, BiochipSimulator.run

    def spy_init(
        self, graph, schedule, binding, placement, chip, routing_plan=None, **kw
    ):
        init(self, graph, schedule, binding, placement, chip, routing_plan, **kw)
        for i, design in enumerate(designs):
            if (
                placement is design.placement_result.placement
                and routing_plan is design.routing_plan
            ):
                built.append((self, i))

    def spy_run(self, faults=(), **kw):
        faults = list(faults)
        if not faults:
            for sim, i in built:
                if sim is self:
                    counts[i] += 1
        return run(self, faults=faults, **kw)

    monkeypatch.setattr(BiochipSimulator, "__init__", spy_init)
    monkeypatch.setattr(BiochipSimulator, "run", spy_run)
    return counts


class TestOneReplayPerInput:
    """The engine keeps one simulator per design and each simulator a
    report memo, so a replay runs once per distinct input; no outcome
    changes."""

    @staticmethod
    def _scenarios():
        """(design, fault events, run seed) for every bundled assay,
        fault model and arrival."""
        out = []
        for assay in sorted(BUNDLED_ASSAYS):
            result = _routed(assay)
            for model in _MODELS:
                for arrival in _ARRIVALS:
                    rng = random.Random(f"{assay}|{model}|{arrival}")
                    events = fault_timeline(
                        _engine(), result, model, arrival * result.makespan,
                        "pending-module", rng,
                    )
                    out.append((result, events, rng.randrange(2**32)))
        return out

    @pytest.mark.parametrize(
        "mode, sensor", [("oracle", None), ("closed-loop", _LOSSY)],
        ids=["oracle", "lossy"],
    )
    def test_shared_engine_equals_fresh_engines(self, mode, sensor, monkeypatch):
        """One engine and controller over all 40 scenarios give the
        outcomes a fresh engine and controller give each scenario. No
        placement changes after a simulator was handed it, and every
        report the shared engine memoized equals a fresh simulator's
        run of the same inputs."""
        handed = []
        init = BiochipSimulator.__init__

        def spy_init(self, graph, schedule, binding, placement, *args, **kw):
            handed.append((placement, list(placement)))
            init(self, graph, schedule, binding, placement, *args, **kw)

        monkeypatch.setattr(BiochipSimulator, "__init__", spy_init)
        shared = ClosedLoopController(engine=_engine(), sensor=sensor)
        recoveries = 0
        for result, events, seed in self._scenarios():
            got = shared.run(result, events, seed=seed, mode=mode)
            fresh = ClosedLoopController(engine=_engine(), sensor=sensor).run(
                result, events, seed=seed, mode=mode
            )
            assert _strip_timing(got.to_dict()) == _strip_timing(fresh.to_dict())
            recoveries += len(got.recoveries)
        assert recoveries >= 30
        assert all(list(placement) == modules for placement, modules in handed)
        monkeypatch.undo()
        memoized = 0
        for key, (inputs, sim) in shared.engine._simulators.items():
            cold = BiochipSimulator(*inputs, plan_covers_faults=key[-1])
            for faults, report in sim._report_memo.items():
                again = cold.run(faults=faults)
                assert (again.to_dict(), again.events) == (report.to_dict(), report.events)
                assert (again.realized, again.position_log) == (
                    report.realized, report.position_log
                )
                memoized += 1
        assert memoized >= 10

    def test_alternating_designs_replay_each_nominal_once(self, monkeypatch):
        """One engine shared, with nothing pinned, over designs A, B, A,
        B (recover-paper's shape): each nominal design replays once,
        though every scenario recovers and so caches new designs."""
        designs = [_routed("pcr"), _routed("ivd")]
        counts = _count_fault_free_replays(monkeypatch, designs)
        controller = ClosedLoopController(engine=_engine())
        for result in designs * 2:
            events = fault_timeline(
                controller.engine, result, "permanent", 0.45 * result.makespan,
                "pending-module", random.Random(1),
            )
            outcome = controller.run(result, events, seed=1, mode="oracle")
            assert outcome.completed and outcome.recoveries
        assert counts == [1, 1]

    def test_oracle_verdict_reads_the_final_rungs_report(self, monkeypatch):
        """In oracle mode the verdict replays the final rung's design
        under the final rung's coverage, on its simulator; under a
        single permanent fault it also replays the rung's timeline, so
        the verdict is the rung's memoized report."""
        calls: list[BiochipSimulator] = []
        report = BiochipSimulator.report

        def spy(self, faults=(), **kw):
            calls.append(self)
            return report(self, faults, **kw)

        monkeypatch.setattr(BiochipSimulator, "report", spy)
        for assay in sorted(BUNDLED_ASSAYS):
            result = _routed(assay)
            events = _single_fault(result, 0.45, "pending-module", seed=2)
            calls.clear()
            outcome = ClosedLoopController(engine=_engine()).run(
                result, events, seed=2, mode="oracle"
            )
            assert outcome.completed and len(outcome.recoveries) == 1
            assert calls[-1] is calls[-2]
            assert outcome.verdict is outcome.recoveries[-1].sim_report


class TestProbeWalkMemo:
    """The controller memoizes probe walks by the exact inputs of
    :func:`free_cell_paths`: the array dims and the active footprints."""

    @pytest.mark.parametrize("assay", sorted(BUNDLED_ASSAYS))
    def test_memoized_walks_are_fresh_walks(self, assay):
        """At every probe instant of the design and of the design a
        relocate recovery leaves, on one controller: the first call (a
        miss, or a hit on the other design's walks) and the second (a
        hit) both equal a fresh plan."""
        result = _routed(assay)
        controller = ClosedLoopController(engine=_engine())
        (fault,) = _single_fault(result, 0.5, "pending-module", seed=1)
        out = controller.engine.recover(
            result, [fault.cell], fault.time_s, rung="relocate"
        )
        assert out.recovered and out.relocated_ops, out.reason
        recovered = replace(
            result,
            placement_result=replace(
                result.placement_result, placement=out.placement
            ),
            routing_plan=out.routing_plan,
        )
        planned = 0
        for design in (result, recovered):
            placement = design.placement_result.placement
            width, height = placement.array_dims()
            instants = controller._probe_instants(
                closedloop._RunState(result=design), 0.0
            )
            assert instants
            for now in instants:
                fresh = free_cell_paths(placement, now, width=width, height=height)
                for _ in range(2):
                    assert controller._walks(placement, now, width, height) == fresh
                planned += 1
        # The two designs share most configurations.
        assert len(controller._walk_memo) < planned

    def test_replaced_module_gets_fresh_walks(self):
        result = _routed("pcr")
        placement = result.placement_result.placement.copy()
        width, height = placement.array_dims()
        controller = ClosedLoopController()
        pm = max(placement, key=lambda m: m.stop - m.start)
        now = (pm.start + pm.stop) / 2
        before = controller._walks(placement, now, width, height)
        dx = 1 if pm.footprint.x2 < placement.core_width else -1
        placement.replace(pm.moved_to(pm.x + dx, pm.y))
        after = controller._walks(placement, now, width, height)
        assert after == free_cell_paths(placement, now, width=width, height=height)
        assert after != before
