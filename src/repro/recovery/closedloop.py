"""Closed-loop fault tolerance: sense, detect, localize, recover.

The recovery engine answers *"a cell died at time t — re-synthesize"*,
but assumes someone told it *which* cell and *when*. On real hardware
nobody does: the paper's detection story (references [13]/[14]) is a
test droplet pumped over spare cells and a capacitive sensor at the
sink, which means faults become visible only through **imperfect
observations** — probe campaigns that run at discrete instants, a
sensor that misreads with configurable FPR/FNR, and a read-out
latency. This module closes that loop:

* **Detection semantics.** The controller never reads the simulator's
  ground truth. It schedules probe campaigns (one per placement
  configuration change, plus a periodic grid), walks test droplets
  over the currently-free cells of a chip whose true state is the set
  of active dead cells, and sees only the (possibly noisy) sink
  readings. A failed walk is re-probed once for confirmation — a
  dismissed reading is recorded as a false alarm and *never* aborts a
  run — then the majority-voted bisection localizer names a believed
  cell.
* **Graceful degradation.** Every confirmed detection climbs the
  recovery ladder (:data:`~repro.recovery.engine.RECOVERY_RUNGS`):
  suffix re-route only, then relocation of the hit modules to
  fault-free sites + re-route (no anneal, no seed drawn), then
  relocation-seeded re-place + re-route, then a full warm-restart
  re-synthesis; if all rungs fail the controller aborts with
  structured partial results from the last checkpoint.
  Each rung attempt is recorded as a :class:`LadderStep` on the
  winning (or final failing) outcome's ``ladder_trace``.
* **Oracle reference.** ``mode="oracle"`` keeps the perfect-knowledge
  path: detections synthesized directly from the ground-truth fault
  events (exact cell, zero latency, zero probes). A closed-loop run
  whose sensor :attr:`~repro.testing.detector.CapacitiveSensor.is_perfect`
  and whose localizer uses a single vote short-circuits to the same
  detections **by construction** — zero-error, zero-latency sensing is
  continuous monitoring — so the two modes are bit-identical there
  (property-tested in ``tests/test_closed_loop.py``).
* **Watchdog.** A fault the probes never saw (it landed under an
  occupied module footprint, or every probe misread) still wrecks the
  assay; the final ground-truth verdict replay exposes that, and the
  stuck-droplet watchdog then names the earliest undetected fault and
  re-enters the ladder, for a bounded number of rounds.

The controller's own replay inputs are *believed* faults; the verdict
replay at the end is the only place ground truth re-enters, which is
what makes detection latency and misdetection consequences honest.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace

from repro.fault.models import FAIL, FaultEvent
from repro.geometry import Point
from repro.recovery.engine import (
    RECOVERY_RUNGS,
    OnlineRecoveryEngine,
    RecoveryOutcome,
)
from repro.placement.model import Placement
from repro.sim.engine import SimulationReport, active_fault_cells
from repro.synthesis.flow import SynthesisResult
from repro.testing.detector import CapacitiveSensor
from repro.testing.localize import FaultLocalizer
from repro.testing.test_droplet import free_cell_paths
from repro.util.errors import RecoveryError
from repro.util.rng import ensure_rng, spawn_seed

#: Detection modes :meth:`ClosedLoopController.run` understands.
DETECTION_MODES = ("closed-loop", "oracle")

#: Missed faults the stuck-droplet watchdog may hand back to the ladder
#: after failed verdict replays, per run.
WATCHDOG_ROUNDS = 3


@dataclass(frozen=True)
class LadderStep:
    """One rung attempt of the graceful-degradation ladder."""

    rung: str
    succeeded: bool
    reason: str | None
    recovery_s: float

    def to_dict(self) -> dict:
        return {
            "rung": self.rung,
            "succeeded": self.succeeded,
            "reason": self.reason,
            "recovery_s": self.recovery_s,
        }


@dataclass(frozen=True)
class Detection:
    """One controller-visible fault detection (or dismissed alarm)."""

    #: Cell the controller believes is dead (placement coordinates).
    believed_cell: Point
    #: Instant the controller acted on the belief (probe time + sensor
    #: read-out latency).
    detected_at_s: float
    #: How the belief arose: ``oracle`` (ground truth), ``probe``
    #: (confirmed sensor campaign), or ``watchdog`` (stuck-droplet
    #: monitor after a missed detection).
    via: str
    #: The matching true fault event, when one exists. ``None`` marks a
    #: phantom — a confirmed false alarm the controller recovered
    #: around anyway (the believed cell is actually healthy).
    true_cell: Point | None = None
    true_time_s: float | None = None
    #: ``detected_at_s - true_time_s`` for real faults, ``None`` for
    #: phantoms.
    latency_s: float | None = None
    #: Test-droplet dispenses consumed by the detecting campaign.
    probes_used: int = 0
    #: True for a reading dismissed by the confirmation re-probe
    #: (recorded, never acted on).
    dismissed: bool = False

    def to_dict(self) -> dict:
        return {
            "believed_cell": [self.believed_cell.x, self.believed_cell.y],
            "detected_at_s": self.detected_at_s,
            "via": self.via,
            "true_cell": (
                [self.true_cell.x, self.true_cell.y]
                if self.true_cell is not None
                else None
            ),
            "true_time_s": self.true_time_s,
            "latency_s": self.latency_s,
            "probes_used": self.probes_used,
            "dismissed": self.dismissed,
        }


@dataclass
class ClosedLoopOutcome:
    """Everything one closed-loop (or oracle) run produced."""

    detection_mode: str
    #: The headline: the final ground-truth verdict replay completed.
    completed: bool
    #: Set when the ladder was exhausted on some detection.
    aborted: bool
    reason: str | None
    #: Confirmed detections the controller acted on, in order.
    detections: tuple[Detection, ...]
    #: Readings dismissed by the confirmation re-probe.
    false_alarms: tuple[Detection, ...]
    #: One recovery outcome per acted-on detection (``ladder_trace``
    #: carries the rung-by-rung record).
    recoveries: tuple[RecoveryOutcome, ...]
    #: Ground-truth verdict replay on the final plan (None only when
    #: the run aborted before any plan existed).
    verdict: SimulationReport | None
    #: The true fault events the run was subjected to.
    fault_events: tuple[FaultEvent, ...]
    nominal_makespan_s: float = 0.0
    #: Total test-droplet dispenses across all campaigns.
    probes_run: int = 0
    watchdog_rounds: int = 0

    @property
    def realized_makespan_s(self) -> float | None:
        """The verdict replay's finish time; ``None`` unless the run
        completed (a failed replay's report times no finish)."""
        if self.verdict is None:
            return None
        return self.verdict.realized_makespan

    @property
    def makespan_penalty_s(self) -> float | None:
        """Extra completion time the faults cost (``None`` unless the
        run completed)."""
        if self.realized_makespan_s is None:
            return None
        return self.realized_makespan_s - self.nominal_makespan_s

    @property
    def final_rung(self) -> str | None:
        """The rung that closed the last acted-on detection (``abort``
        when the ladder was exhausted, ``None`` when fault-free)."""
        if self.aborted:
            return "abort"
        if not self.recoveries:
            return None
        return self.recoveries[-1].rung

    @property
    def detection_latencies(self) -> tuple[float, ...]:
        """Latencies of every real-fault detection, in order."""
        return tuple(
            d.latency_s for d in self.detections if d.latency_s is not None
        )

    def to_dict(self) -> dict:
        """JSON-safe summary; an aborted run carries structured partial
        results (completed ops, realized intervals, parked droplets)
        from the last checkpoint instead of a silent failure."""
        partial = None
        if self.aborted and self.recoveries:
            partial = self.recoveries[-1].checkpoint.to_dict()
        return {
            "detection_mode": self.detection_mode,
            "completed": self.completed,
            "aborted": self.aborted,
            "reason": self.reason,
            "detections": [d.to_dict() for d in self.detections],
            "false_alarms": [d.to_dict() for d in self.false_alarms],
            "recoveries": [r.to_dict() for r in self.recoveries],
            "verdict": self.verdict.to_dict() if self.verdict is not None else None,
            "fault_events": [e.to_dict() for e in self.fault_events],
            "nominal_makespan_s": self.nominal_makespan_s,
            "realized_makespan_s": self.realized_makespan_s,
            "makespan_penalty_s": self.makespan_penalty_s,
            "probes_run": self.probes_run,
            "watchdog_rounds": self.watchdog_rounds,
            "final_rung": self.final_rung,
            "partial": partial,
        }

    def summary(self) -> str:
        status = "COMPLETED" if self.completed else (
            f"ABORTED ({self.reason})" if self.aborted else f"FAILED ({self.reason})"
        )
        lat = self.detection_latencies
        latency = (
            f"mean detection latency {sum(lat) / len(lat):.3g}s; " if lat else ""
        )
        realized = (
            "-" if self.realized_makespan_s is None
            else f"{self.realized_makespan_s:g}s"
        )
        return (
            f"{status} [{self.detection_mode}]: "
            f"{len(self.detections)} detection(s) "
            f"({', '.join(d.via for d in self.detections) or 'none'}), "
            f"{len(self.false_alarms)} false alarm(s) dismissed, "
            f"{self.probes_run} probe droplets; {latency}"
            f"final rung {self.final_rung or 'n/a'}; makespan "
            f"{self.nominal_makespan_s:g}s -> {realized}"
        )


@dataclass
class _RunState:
    """Mutable controller state threaded through one run."""

    result: SynthesisResult
    believed: list[Point] = field(default_factory=list)
    detections: list[Detection] = field(default_factory=list)
    false_alarms: list[Detection] = field(default_factory=list)
    recoveries: list[RecoveryOutcome] = field(default_factory=list)
    probes_run: int = 0
    aborted: bool = False
    abort_reason: str | None = None


class ClosedLoopController:
    """Runs an assay end to end under sensed (not known) faults.

    *sensor* is the observation channel (default: the ideal sensor, the
    oracle-equivalent setting); probes take a majority of
    :attr:`votes` readings.
    Probe campaigns run at every configuration change plus a periodic
    grid of one eighth of the nominal makespan; the stuck-droplet
    watchdog hands back at most :data:`WATCHDOG_ROUNDS` missed faults.
    """

    def __init__(
        self,
        engine: OnlineRecoveryEngine | None = None,
        sensor: CapacitiveSensor | None = None,
    ) -> None:
        self.engine = engine if engine is not None else OnlineRecoveryEngine()
        self.sensor = sensor if sensor is not None else CapacitiveSensor()
        #: Majority-vote width for noisy sensing; with a perfect sensor
        #: extra votes are pure waste.
        self.votes = 1 if self.sensor.is_perfect else 3
        #: :func:`free_cell_paths` results keyed by its exact inputs:
        #: the array dims and the active footprints (see :meth:`_walks`).
        self._walk_memo: dict[tuple, list[list[Point]]] = {}

    # -- the public entry point ---------------------------------------------

    def run(
        self,
        result: SynthesisResult,
        faults: tuple[FaultEvent, ...] | list[FaultEvent],
        seed: int | random.Random | None = None,
        mode: str = "closed-loop",
        known_faults=(),
    ) -> ClosedLoopOutcome:
        """Execute *result*'s assay under *faults*, recovering as needed.

        *faults* is a realized event timeline (see
        :func:`~repro.fault.models.scenario_events`), in any order: it
        is sorted by time on entry, stably, so simultaneous events keep
        their given order. *mode* is ``"closed-loop"`` (detections only
        via sensing) or ``"oracle"`` (the retained perfect-knowledge
        reference). *known_faults* are design-time defects (placement
        coordinates) the nominal plan already routes around: they are
        dead from t=0 and believed from the start, so they are never
        detections.
        """
        if mode not in DETECTION_MODES:
            raise RecoveryError(
                f"unknown detection mode {mode!r}; choose from {DETECTION_MODES}"
            )
        rng = ensure_rng(seed)
        known = [Point(*c) for c in known_faults]
        events = (
            *(FaultEvent(0.0, c, FAIL, "defect") for c in known),
            *sorted(faults, key=lambda e: e.time_s),
        )
        state = _RunState(result=result, believed=known)

        # Zero-error, zero-latency sensing with single-vote probes *is*
        # continuous monitoring: the controller learns of every fault
        # the instant it fires, with the exact cell. The short-circuit
        # makes that semantic literal — and keeps the zero-noise closed
        # loop bit-identical to the oracle (the acceptance property).
        oracle_like = mode == "oracle" or (
            self.sensor.is_perfect and self.votes == 1
        )
        if oracle_like:
            self._oracle_detect(state, events, rng)
        else:
            self._probe_loop(state, events, rng)

        verdict = None if state.aborted else self._verdict(state, events)
        rounds = 0
        while (
            not state.aborted
            and verdict is not None
            and not verdict.completed
            and rounds < WATCHDOG_ROUNDS
        ):
            # Stuck-droplet watchdog: the replay shows the assay did not
            # finish, so some undetected fault is still biting. Name the
            # earliest one the controller never believed in and climb
            # the ladder for it; detection charged one probe period of
            # latency (the monitor notices a droplet overdue at its next
            # scan, regardless of sensor quality).
            missed = next(
                (
                    e
                    for e in events
                    if e.kind == FAIL and e.cell not in state.believed
                ),
                None,
            )
            if missed is None:
                break
            delay = self._period(result)
            det = Detection(
                believed_cell=missed.cell,
                detected_at_s=missed.time_s + delay,
                via="watchdog",
                true_cell=missed.cell,
                true_time_s=missed.time_s,
                latency_s=delay,
            )
            rounds += 1
            if not self._handle_detection(state, det, rng):
                break
            verdict = self._verdict(state, events)

        completed = verdict is not None and verdict.completed
        reason = state.abort_reason
        if reason is None and not completed:
            reason = (
                verdict.failure_reason
                if verdict is not None
                else "no verdict replay (run aborted before any plan)"
            )
        return ClosedLoopOutcome(
            detection_mode=mode,
            completed=completed,
            aborted=state.aborted,
            reason=None if completed else reason,
            detections=tuple(state.detections),
            false_alarms=tuple(state.false_alarms),
            recoveries=tuple(state.recoveries),
            verdict=verdict,
            fault_events=events,
            nominal_makespan_s=result.makespan,
            probes_run=state.probes_run,
            watchdog_rounds=rounds,
        )

    # -- detection channels ---------------------------------------------------

    def _oracle_detect(
        self,
        state: _RunState,
        events: tuple[FaultEvent, ...],
        rng: random.Random,
    ) -> None:
        """Perfect knowledge: every ``fail`` event is a detection at its
        own instant with its exact cell; repeat fails on an already-
        believed cell (an intermittent fault re-firing) are no-ops —
        the plan already avoids the cell."""
        for e in events:
            if e.kind != FAIL or e.cell in state.believed:
                continue
            det = Detection(
                believed_cell=e.cell,
                detected_at_s=e.time_s,
                via="oracle",
                true_cell=e.cell,
                true_time_s=e.time_s,
                latency_s=0.0,
            )
            if not self._handle_detection(state, det, rng):
                return

    @staticmethod
    def _period(result: SynthesisResult) -> float:
        return max(result.makespan / 8.0, 1e-9)

    def _probe_instants(self, state: _RunState, after: float) -> list[float]:
        """Campaign instants still ahead: every configuration change of
        the *current* placement plus the periodic grid, capped at the
        nominal makespan (probing a finished assay detects nothing the
        verdict replay would not)."""
        placement = state.result.placement_result.placement
        horizon = state.result.makespan
        period = self._period(state.result)
        instants = {t for t in placement.event_times() if 0.0 < t < horizon}
        k = 1
        while k * period < horizon:
            instants.add(k * period)
            k += 1
        return sorted(t for t in instants if t > after)

    def _walks(
        self, placement: Placement, now: float, width: int, height: int
    ) -> list[list[Point]]:
        """:func:`free_cell_paths` at *now*, memoized on the controller.

        The walks depend only on the array dims and the footprints
        active at *now*, which many probe instants share: those of one
        placement, of the designs its recoveries leave, and of other
        scenarios run on this controller. Callers must not mutate the
        returned walks."""
        key = (
            width, height,
            frozenset(pm.footprint for pm in placement.active_at(now)),
        )
        walks = self._walk_memo.get(key)
        if walks is None:
            walks = self._walk_memo[key] = free_cell_paths(
                placement, now, width=width, height=height
            )
        return walks

    def _probe_loop(
        self,
        state: _RunState,
        events: tuple[FaultEvent, ...],
        rng: random.Random,
    ) -> None:
        """Sensed detection: walk campaigns at each probe instant; on a
        confirmed finding, recover and re-plan the remaining campaigns
        against the updated placement.

        The instants, the array dims and the probe period are planned
        once per placement (a recovery is the only thing that changes
        them), and the walks come from :meth:`_walks`."""
        localizer = FaultLocalizer(sensor=self.sensor, votes=self.votes)
        now, replan = 0.0, True
        while True:
            if replan:
                placement = state.result.placement_result.placement
                width, height = placement.array_dims()
                ahead = iter(self._probe_instants(state, now))
                replan = False
            now = next(ahead, None)
            if now is None:
                return
            # The chip's true state, which only the walks observe.
            dead = frozenset(active_fault_cells(
                ((e.time_s, e.cell, e.kind) for e in events), now
            ))
            for path in self._walks(placement, now, width, height):
                probe = localizer.localize(dead, path, rng)
                state.probes_run += probe.runs
                if not probe.fault_found or probe.faulty_cell in state.believed:
                    continue
                # Confirmation re-probe: one more full localization of
                # the same walk. A clean re-read dismisses the alarm —
                # dismissed alarms are recorded and never recovered
                # around, so a false alarm cannot abort a healthy run.
                confirm = localizer.localize(dead, path, rng)
                state.probes_run += confirm.runs
                campaign_runs = probe.runs + confirm.runs
                detected_at = now + self.sensor.latency_s
                if not confirm.fault_found:
                    state.false_alarms.append(
                        Detection(
                            believed_cell=probe.faulty_cell,
                            detected_at_s=detected_at,
                            via="probe",
                            probes_used=campaign_runs,
                            dismissed=True,
                        )
                    )
                    continue
                believed = confirm.faulty_cell
                if believed in state.believed:
                    continue
                true_event = next(
                    (
                        e
                        for e in events
                        if e.kind == FAIL
                        and e.cell == believed
                        and e.time_s <= now
                    ),
                    None,
                )
                det = Detection(
                    believed_cell=believed,
                    detected_at_s=detected_at,
                    via="probe",
                    true_cell=true_event.cell if true_event else None,
                    true_time_s=true_event.time_s if true_event else None,
                    latency_s=(
                        detected_at - true_event.time_s if true_event else None
                    ),
                    probes_used=campaign_runs,
                )
                if not self._handle_detection(state, det, rng):
                    return
                # The placement (and its event times) changed; re-plan
                # the remaining campaigns. Another fault active at this
                # same instant is caught one probe later — or by the
                # watchdog.
                replan = True
                break

    # -- the ladder -----------------------------------------------------------

    def _handle_detection(
        self,
        state: _RunState,
        det: Detection,
        rng: random.Random,
    ) -> bool:
        """Climb the graceful-degradation ladder for one detection.

        Returns ``False`` when the ladder was exhausted (the run is
        aborted; the last outcome carries the full trace and the
        checkpoint's structured partial results)."""
        cell = det.believed_cell
        known = tuple(c for c in state.believed if c != cell)
        trace: list[LadderStep] = []
        final: RecoveryOutcome | None = None
        last: RecoveryOutcome | None = None
        # Every rung cuts the detection's nominal checkpoint from the
        # one memoized nominal report; when the nominal execution fails,
        # every rung is refused with that error.
        for rung in RECOVERY_RUNGS:
            # relocate is deterministic: drawing no seed for it keeps
            # every later rung's seed what it was without it.
            seed = None if rung == "relocate" else spawn_seed(rng)
            try:
                out = self.engine.recover(
                    state.result,
                    [cell],
                    det.detected_at_s,
                    seed=seed,
                    known_faults=known,
                    rung=rung,
                )
            except RecoveryError as exc:
                trace.append(
                    LadderStep(
                        rung=rung, succeeded=False, reason=str(exc), recovery_s=0.0
                    )
                )
                continue
            last = out
            trace.append(
                LadderStep(
                    rung=rung,
                    succeeded=out.recovered,
                    reason=out.reason,
                    recovery_s=out.recovery_s,
                )
            )
            if out.recovered:
                final = out
                break
        state.detections.append(det)
        if final is None:
            trace.append(
                LadderStep(
                    rung="abort",
                    succeeded=False,
                    reason="all recovery rungs exhausted",
                    recovery_s=0.0,
                )
            )
            state.aborted = True
            state.abort_reason = (
                f"recovery ladder exhausted for believed fault at {cell} "
                f"(t={det.detected_at_s:g}s)"
            )
            if last is not None:
                last.ladder_trace = tuple(trace)
                state.recoveries.append(last)
            state.believed.append(cell)
            return False
        final.ladder_trace = tuple(trace)
        state.recoveries.append(final)
        state.believed.append(cell)
        # Subsequent checkpoints, probes, and recoveries run against the
        # recovered configuration: the believed cell joins the known-
        # defect set and the synthesis result is rebuilt around the
        # recovered placement and merged plan.
        assert final.placement is not None and final.routing_plan is not None
        state.result = replace(
            state.result,
            placement_result=replace(
                state.result.placement_result, placement=final.placement
            ),
            routing_plan=final.routing_plan,
            sim_report=None,
        )
        return True

    # -- ground truth re-enters exactly once ----------------------------------

    def _verdict(
        self, state: _RunState, events: tuple[FaultEvent, ...]
    ) -> SimulationReport:
        """The authoritative completion check: replay the final plan
        against the **true** fault timeline (fails *and* clears, at
        their real instants — not the believed ones). The plan is
        credited with covering exactly the believed cells; a missed
        fault, a phantom, or damage done inside a detection-latency
        window shows up here, not in the controller's own bookkeeping.
        """
        result = state.result
        chip = result.chip
        sim = self.engine.simulator(
            result,
            result.placement_result.placement,
            result.routing_plan,
            state.believed,
        )
        # History up to the first true fault, or the first recovery (a
        # false alarm can come first), is the final rung's replay, or
        # with no recovery the nominal one, if this design ran it.
        if state.recoveries:
            source = state.recoveries[-1].sim_report
        else:
            source = sim.memoized([(0.0, chip.cell(c)) for c in state.believed])
        return sim.report(
            [(e.time_s, chip.cell(e.cell), e.kind) for e in events],
            resume=source,
        )
