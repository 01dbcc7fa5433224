"""Online fault recovery: checkpoint -> incremental re-synthesis -> resume.

The paper's central claim is that a DMFB keeps executing an assay after
cells fail, by dynamically reconfiguring the remaining operations
around the new fault map. The offline engines assume faults are known
before time 0; this engine handles the *online* case — a cell dies at
an arbitrary instant mid-assay:

1. **Checkpoint.** :meth:`BiochipSimulator.checkpoint` captures the
   live state at the fault instant: completed operations (their cells
   are already consumed), in-flight operations (droplets physically
   inside their modules — those modules are *frozen*), pending
   operations (not started — the re-synthesizable suffix), and the
   parked-product map.
2. **Incremental re-placement.** Pending modules directly hit by the
   fault are rescued first with the paper's partial-reconfiguration
   relocation (a deterministic legality pass), then *all* pending
   modules are re-optimized by a warm-started low-temperature anneal
   on the :class:`~repro.placement.incremental.IncrementalCostEvaluator`:
   the nominal placement is the initial state, only pending modules
   are movable (:class:`~repro.placement.moves.MoveGenerator`'s
   ``movable`` filter), and a fault-overlap penalty keeps them off the
   dead cells and the chip's port cells. Frozen modules, the chip and
   its frame never change, which is what keeps the already-executed
   routing prefix valid (see DESIGN.md, "checkpoint invariants"). The
   ``relocate`` rung stops after the relocation pass: no anneal runs.
3. **Suffix re-route.** Only the routing epochs released *after* the
   fault instant are re-synthesized on the same chip, on the packed
   :class:`~repro.routing.timegrid.TimeGrid` against the updated fault
   mask, with their step counters continuing the kept prefix. Prefix
   epochs are reused verbatim — their obstacle context derives solely
   from frozen modules.
4. **Resume.** A simulator carrying the recovered placement and the
   merged plan replays the assay with the fault injected at its real
   arrival time; ``plan_covers_faults`` tells the replay layer the
   plan already knows the fault, so suffix transports keep replaying
   instead of falling back to ad-hoc A*.

An unrecoverable fault (no fault-free site for a hit module, an
unroutable suffix net, a failed replay) produces an explicit
infeasibility outcome, never a silent partial answer.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from repro.fault.models import FaultEvent, scenario_events
from repro.fault.reconfigure import PartialReconfigurer
from repro.geometry import Point
from repro.placement.annealer import AnnealingParams, SimulatedAnnealing
from repro.placement.cost import AreaCost
from repro.placement.incremental import IncrementalCostEvaluator
from repro.placement.model import Placement
from repro.placement.moves import MoveGenerator
from repro.routing.plan import RoutingPlan
from repro.routing.synthesis import RoutingSynthesizer
from repro.sim.engine import BiochipSimulator, SimCheckpoint, SimulationReport
from repro.synthesis.flow import SynthesisResult
from repro.util.errors import (
    ReconfigurationError,
    RecoveryError,
    RoutingError,
    SimulationError,
)
from repro.util.rng import ensure_rng, spawn_rng

#: Fault-target kinds :func:`pick_fault_cell` understands.
FAULT_TARGETS = ("pending-module", "in-flight-module", "center", "street")

#: Graceful-degradation rungs :meth:`OnlineRecoveryEngine.recover`
#: understands, cheapest first. The closed-loop controller climbs them
#: in order (and appends its terminal ``"abort"`` rung on top):
#:
#: * ``reroute`` — suffix re-route only: no module moves at all. Sound
#:   only when no pending/in-flight module covers a dead cell; the
#:   engine fails fast (never silently escalates) otherwise.
#: * ``relocate`` — the paper's single-module relocation: every hit
#:   pending module moves to the nearest fault-free site that fits it
#:   (deterministic, no anneal, no seed), then suffix re-route and
#:   resumed replay. It fails fast, before any routing, when a hit
#:   module has no fault-free site or when no pending module is hit
#:   (its layout would then be ``reroute``'s).
#: * ``replace`` — the standard path: relocation of hit modules, the
#:   anchored warm-restart anneal, then suffix re-route.
#: * ``resynth`` — escalated warm restart: a hotter annealing schedule,
#:   the nominal-anchor term dropped (the layout may now diverge
#:   freely), and — uniquely — a degraded-plan tolerance: a suffix
#:   net the router cannot close is delegated to the replay's own
#:   partial reconfiguration, and the
#:   verified replay's completion is the arbiter (``plan_verified``
#:   stays False on such outcomes).
RECOVERY_RUNGS = ("reroute", "relocate", "replace", "resynth")

#: Pull of each movable module toward its nominal origin in the warm
#: restart (:class:`FaultAvoidanceCost`); the ``resynth`` rung drops it.
ANCHOR_WEIGHT = 0.5

#: Penalty per dead cell under a module footprint in the warm restart —
#: large enough that escaping a fault dominates every other term.
FAULT_WEIGHT = 1000.0

class FaultAvoidanceCost(AreaCost):
    """Warm-restart objective: area + fault penalty + anchor term.

    Three departures from the offline :class:`AreaCost`:

    * a per-cell penalty (:data:`FAULT_WEIGHT`) for any module footprint
      covering a dead cell — large enough that escaping a fault
      dominates everything else;
    * an *anchor* term pulling each movable module toward its nominal
      origin — online recovery wants the **minimal perturbation** of
      the already-synthesized layout (shorter droplet migrations, a
      routing suffix closest to the verified nominal plan), not a fresh
      global optimum;
    * the offline corner-pull is disabled (it compacts modules into
      walls, exactly what a mid-assay array full of parked droplets
      cannot afford).

    Every term has an exact O(#faults + #updates) delta, so the
    warm-restart anneal keeps the full incremental delta-cost path.
    Frozen modules contribute a constant offset the deltas never see.
    """

    def __init__(
        self,
        faulty_cells,
        anchors: dict[str, tuple[int, int]] | None = None,
        anchor_weight: float = ANCHOR_WEIGHT,
    ) -> None:
        # The chip is already fabricated mid-assay: shrinking the
        # bounding array buys nothing and packs modules into walls, so
        # the area term is off (alpha=0), as is the corner-pull. What
        # remains is overlap + fault + anchor — the minimal-perturbation
        # objective.
        super().__init__(alpha=0.0, pull_weight=0.0)
        self.faulty = tuple(Point(*c) for c in faulty_cells)
        self._cells = tuple((c.x, c.y) for c in self.faulty)
        self.anchors = dict(anchors or {})
        self.anchor_weight = anchor_weight

    def _covered(self, x1: int, y1: int, x2: int, y2: int) -> int:
        """Dead cells inside the footprint ``(x1, y1)..(x2, y2)``."""
        n = 0
        for fx, fy in self._cells:
            if x1 <= fx <= x2 and y1 <= fy <= y2:
                n += 1
        return n

    def _extra(self, boxes, anchors) -> float:
        """Fault and anchor terms over footprint ``(x1, y1, x2, y2)``
        boxes and their anchor origins (None where a module has none)."""
        extra = FAULT_WEIGHT * sum(self._covered(*box) for box in boxes)
        if self.anchor_weight:
            extra += self.anchor_weight * sum(
                _anchor_distance(a, box[0], box[1]) for box, a in zip(boxes, anchors)
            )
        return extra

    def __call__(self, placement: Placement) -> float:
        modules = placement.modules()
        boxes = [
            (pm.footprint.x, pm.footprint.y, pm.footprint.x2, pm.footprint.y2)
            for pm in modules
        ]
        anchors = [self.anchors.get(pm.op_id) for pm in modules]
        return super().__call__(placement) + self._extra(boxes, anchors)

    # -- incremental protocol -------------------------------------------------

    def _anchors_by_index(self, evaluator: IncrementalCostEvaluator) -> list:
        """Each module's anchor origin (or None), by evaluator index —
        bound once per evaluator."""
        anchors = evaluator.bound.get(self)
        if anchors is None:
            anchors = evaluator.bound[self] = [self.anchors.get(op) for op in evaluator.ops]
        return anchors

    def current(self, evaluator: IncrementalCostEvaluator) -> float:
        boxes = zip(evaluator.x1, evaluator.y1, evaluator.x2, evaluator.y2)
        return super().current(evaluator) + self._extra(
            list(boxes), self._anchors_by_index(evaluator)
        )

    def delta(self, evaluator: IncrementalCostEvaluator, move: tuple) -> float:
        d = super().delta(evaluator, move)
        anchors = self._anchors_by_index(evaluator)
        dims = evaluator.dims
        X1, Y1, X2, Y2 = evaluator.x1, evaluator.y1, evaluator.x2, evaluator.y2
        for k in range(0, len(move), 4):
            i, x, y, r = move[k:k + 4]
            w, h = dims[i][r]
            d += FAULT_WEIGHT * (
                self._covered(x, y, x + w - 1, y + h - 1)
                - self._covered(X1[i], Y1[i], X2[i], Y2[i])
            )
            if self.anchor_weight:
                a = anchors[i]
                d += self.anchor_weight * (
                    _anchor_distance(a, x, y) - _anchor_distance(a, X1[i], Y1[i])
                )
        return d


def _anchor_distance(anchor: tuple[int, int] | None, x: int, y: int) -> int:
    """Manhattan distance from *anchor* to origin ``(x, y)`` (0 unanchored)."""
    return 0 if anchor is None else abs(x - anchor[0]) + abs(y - anchor[1])


@dataclass
class RecoveryOutcome:
    """Everything one online-recovery attempt produced.

    ``recovered`` is the headline: the resumed replay completed *and*
    the merged routing plan routed every suffix net and passed the
    independent verifier. Anything less carries an explicit ``reason``.
    """

    fault_time_s: float
    fault_cells: tuple[Point, ...]
    recovered: bool
    reason: str | None
    checkpoint: SimCheckpoint
    #: Pending modules the warm-restart anneal was allowed to move.
    movable_ops: tuple[str, ...]
    #: Subset rescued by the deterministic relocation pre-pass.
    relocated_ops: tuple[str, ...]
    #: Movable modules whose origin actually changed vs the nominal plan.
    moved_ops: tuple[str, ...] = ()
    nominal_makespan_s: float = 0.0
    #: The resumed replay's finish time; ``None`` when no replay
    #: finished (a rung refused before replaying, or a failed replay).
    recovered_makespan_s: float | None = None
    #: Wall-clock re-synthesis latencies (the online hot path).
    replace_s: float = 0.0
    reroute_s: float = 0.0
    recovery_s: float = 0.0
    #: Prefix epochs reused verbatim / suffix epochs re-synthesized.
    reused_epochs: int = 0
    suffix_epochs: int = 0
    rerouted_nets: int = 0
    plan_verified: bool = False
    placement: Placement | None = None
    routing_plan: RoutingPlan | None = None
    sim_report: SimulationReport | None = None
    #: Graceful-degradation rung this outcome was produced at (one of
    #: :data:`RECOVERY_RUNGS`).
    rung: str = "replace"
    #: Structured ladder trace: every rung the closed-loop controller
    #: climbed for this detection (objects with ``to_dict()``, see
    #: :class:`repro.recovery.closedloop.LadderStep`). Empty for direct
    #: single-rung ``recover()`` calls.
    ladder_trace: tuple = ()

    @property
    def makespan_penalty_s(self) -> float | None:
        """Extra completion time the online fault cost the assay
        (``None`` when no replay finished)."""
        if self.recovered_makespan_s is None:
            return None
        return self.recovered_makespan_s - self.nominal_makespan_s

    def to_dict(self) -> dict:
        """JSON-safe summary (placement/plan/report condensed)."""
        return {
            "fault_time_s": self.fault_time_s,
            "fault_cells": [[p.x, p.y] for p in self.fault_cells],
            "recovered": self.recovered,
            "reason": self.reason,
            "checkpoint": self.checkpoint.to_dict(),
            "movable_ops": list(self.movable_ops),
            "relocated_ops": list(self.relocated_ops),
            "moved_ops": list(self.moved_ops),
            "nominal_makespan_s": self.nominal_makespan_s,
            "recovered_makespan_s": self.recovered_makespan_s,
            "makespan_penalty_s": self.makespan_penalty_s,
            "replace_s": self.replace_s,
            "reroute_s": self.reroute_s,
            "recovery_s": self.recovery_s,
            "reused_epochs": self.reused_epochs,
            "suffix_epochs": self.suffix_epochs,
            "rerouted_nets": self.rerouted_nets,
            "plan_verified": self.plan_verified,
            "rung": self.rung,
            "ladder": [step.to_dict() for step in self.ladder_trace],
            "sim": self.sim_report.to_dict() if self.sim_report is not None else None,
        }


def pick_fault_cell(
    result: SynthesisResult,
    checkpoint: SimCheckpoint,
    target: str = "pending-module",
    rng: random.Random | int | None = None,
) -> Point:
    """A fault cell (placement coordinates) realizing a named scenario.

    * ``pending-module`` — a functional cell of a not-yet-started
      module: the scenario the recovery engine exists for.
    * ``in-flight-module`` — a cell of a running module (exercises the
      simulator's partial-reconfiguration path during resume).
    * ``center`` — the array's center cell.
    * ``street`` — a routing-lane cell under no module footprint.

    Falls back toward ``center`` when the requested population is empty
    (e.g. no pending module remains at a late fault time). Choices are
    drawn from *rng*, so a seeded generator gives a deterministic
    scenario.
    """
    if target not in FAULT_TARGETS:
        raise RecoveryError(
            f"unknown fault target {target!r}; choose from {FAULT_TARGETS}"
        )
    rng = ensure_rng(rng)
    placement = result.placement_result.placement
    width, height = placement.array_dims()

    def module_cell(
        ops: tuple[str, ...], avoid: tuple[str, ...] = ()
    ) -> Point | None:
        """A functional cell of a random module of *ops*, preferring
        cells not also covered by any *avoid* module's footprint (a
        pending-module fault that also lands under a frozen in-flight
        module forces a mid-operation relocation — a different, harder
        scenario than the one requested). Modules whose every cell is
        blocked are skipped while a cleaner candidate exists."""
        placed = sorted(op for op in ops if op in placement)
        if not placed:
            return None
        blocked = {
            c
            for op in avoid
            if op in placement
            for c in placement.get(op).footprint.cells()
        }
        order = list(placed)
        rng.shuffle(order)
        fallback: Point | None = None
        for op in order:
            cells = sorted(placement.get(op).functional_region.cells())
            clear = [c for c in cells if c not in blocked]
            if clear:
                return clear[rng.randrange(len(clear))]
            if fallback is None:
                fallback = cells[rng.randrange(len(cells))]
        return fallback

    if target == "pending-module":
        cell = module_cell(checkpoint.pending, avoid=checkpoint.in_flight)
        if cell is not None:
            return cell
    if target == "in-flight-module":
        cell = module_cell(checkpoint.in_flight)
        if cell is not None:
            return cell
    if target == "street":
        covered = {c for pm in placement for c in pm.footprint.cells()}
        streets = sorted(
            Point(x, y)
            for x in range(1, width + 1)
            for y in range(1, height + 1)
            if Point(x, y) not in covered
        )
        if streets:
            return streets[rng.randrange(len(streets))]
    return Point((width + 1) // 2, (height + 1) // 2)


def fault_timeline(
    engine: OnlineRecoveryEngine,
    design: SynthesisResult,
    fault_model: str,
    fault_time_s: float,
    site,
    rng: random.Random,
    known_faults=(),
) -> tuple[FaultEvent, ...]:
    """One fault's events: *fault_model*'s timeline (see
    :func:`~repro.fault.models.scenario_events`) anchored at
    *fault_time_s* on a cell of *design*.

    *site* is either an explicit cell (placement coordinates) or a
    :data:`FAULT_TARGETS` name; a name is resolved by
    :func:`pick_fault_cell` on the nominal checkpoint at the fault
    instant, with *known_faults* dead from time zero. *rng* is drawn
    from in a fixed order, the site pick first and then the model's own
    draws, so a seeded generator gives a deterministic scenario.
    """
    if isinstance(site, str):
        checkpoint = engine.checkpoint_of(design, fault_time_s, known_faults)
        cell = pick_fault_cell(design, checkpoint, site, rng=rng)
    else:
        cell = Point(*site)
    width, height = design.placement_result.placement.array_dims()
    return scenario_events(
        fault_model, cell, fault_time_s, design.schedule.makespan,
        width, height, rng,
    )


#: Simulators an :class:`OnlineRecoveryEngine` keeps, least recently
#: used evicted first. Each detection's ladder adds a rung simulator or
#: two, and a design must outlive them until a later scenario
#: checkpoints it again. The cap only bounds memory (an n=50 simulator
#: holding two reports takes about 300 KiB): e2ebench's recover-paper
#: runs 40 scenarios over the five bundled designs on one engine and
#: builds 53 simulators, so no design it checkpoints again is evicted,
#: whatever order its scenarios run in.
_SIMULATOR_CACHE_SIZE = 64


class OnlineRecoveryEngine:
    """Recovers a running assay from a mid-execution cell failure."""

    def __init__(self, annealing: AnnealingParams | None = None) -> None:
        #: Warm-restart schedule: start cool, move little — the nominal
        #: placement is already near-optimal and only the fault
        #: neighborhood needs rework.
        self.annealing = (
            annealing if annealing is not None else AnnealingParams.low_temperature()
        )
        self.reconfigurer = PartialReconfigurer()
        self.synthesizer = RoutingSynthesizer()
        #: Simulator cache (see :meth:`simulator`): key -> (the inputs
        #: the key names by identity, their simulator). Every replay the
        #: engine and its closed loop run goes through one of these
        #: simulators' report memos, so a replay runs once per distinct
        #: input: a design's nominal checkpoints across the scenarios of
        #: a campaign unit or a workload, and a verdict that repeats the
        #: final rung's replay. Each scenario starts by checkpointing its
        #: design, which keeps it recently used.
        self._simulators: dict[tuple, tuple[tuple, BiochipSimulator]] = {}

    # -- checkpointing --------------------------------------------------------

    def simulator(
        self,
        result: SynthesisResult,
        placement: Placement,
        routing_plan: RoutingPlan | None,
        plan_covers_faults=(),
    ) -> BiochipSimulator:
        """The simulator of *result*'s assay on *placement* under
        *routing_plan*, crediting the plan with *plan_covers_faults*
        (placement coordinates).

        Cached by the identity of everything a replay reads (the graph,
        schedule, binding, placement, chip and plan) and the covered
        cells; the cache holds references to the inputs, so an identity
        never names a freed object. Nothing mutates a placement once a
        simulator has it, so a cached simulator never goes stale.
        """
        r = result
        inputs = (r.graph, r.schedule, r.binding, placement, r.chip, routing_plan)
        covers = frozenset(Point(*c) for c in plan_covers_faults)
        key = (*map(id, inputs), covers)
        cache = self._simulators
        entry = cache.pop(key, None)
        if entry is None:
            entry = (inputs, BiochipSimulator(*inputs, plan_covers_faults=covers))
        cache[key] = entry  # most recently used last
        if len(cache) > _SIMULATOR_CACHE_SIZE:
            del cache[next(iter(cache))]
        return entry[1]

    def checkpoint_of(
        self,
        result: SynthesisResult,
        fault_time_s: float,
        known_faults=(),
    ) -> SimCheckpoint:
        """Checkpoint the nominal execution at *fault_time_s*.

        *known_faults* are design-time defects (placement coordinates)
        the nominal synthesis already routed around; they fire at time
        zero in the checkpointed run, exactly as the pipeline's verify
        stage injects them.
        """
        if fault_time_s < 0:
            raise RecoveryError(
                f"fault time must be >= 0, got {fault_time_s:g}"
            )
        sim = self.simulator(
            result, result.placement_result.placement, result.routing_plan
        )
        return sim.checkpoint(
            fault_time_s, faults=[(0.0, result.chip.cell(f)) for f in known_faults]
        )

    def nominal_checkpoint(
        self, result: SynthesisResult, fault_time_s: float, known_faults
    ) -> SimCheckpoint:
        """:meth:`checkpoint_of`, raising the :class:`RecoveryError`
        that refuses every rung when the nominal execution itself fails
        before the fault."""
        try:
            return self.checkpoint_of(result, fault_time_s, known_faults)
        except SimulationError as exc:
            raise RecoveryError(
                f"nominal execution fails before any fault: {exc}"
            ) from exc

    # -- the online hot path --------------------------------------------------

    def recover(
        self,
        result: SynthesisResult,
        fault_cells,
        fault_time_s: float,
        seed: int | random.Random | None = None,
        checkpoint: SimCheckpoint | None = None,
        known_faults=(),
        rung: str = "replace",
    ) -> RecoveryOutcome:
        """Run the full checkpoint -> re-synthesize -> resume loop.

        *fault_cells* are in placement coordinates (the frame of
        ``result.placement_result.placement``); *checkpoint* may be
        passed in when the caller already computed it (the closed loop
        checkpoints once per detection and hands that checkpoint to
        every rung it tries).
        *known_faults* are design-time defects the nominal plan already
        avoids; the re-synthesized suffix keeps avoiding them too.
        *rung* picks the graceful-degradation level (see
        :data:`RECOVERY_RUNGS`); the default is the standard re-place +
        re-route path every historical caller used.
        """
        if rung not in RECOVERY_RUNGS:
            raise RecoveryError(
                f"unknown recovery rung {rung!r}; choose from {RECOVERY_RUNGS}"
            )
        faults = tuple(Point(*c) for c in fault_cells)
        known = tuple(Point(*c) for c in known_faults)
        if not faults:
            raise RecoveryError("recovery needs at least one fault cell")
        if checkpoint is None:
            checkpoint = self.nominal_checkpoint(result, fault_time_s, known)
        else:
            # The engine did not build a caller's checkpoint; reject a
            # corrupted or truncated one up front.
            checkpoint.validate(result.schedule)

        def failed(reason: str, **extra) -> RecoveryOutcome:
            return RecoveryOutcome(
                fault_time_s=fault_time_s,
                fault_cells=faults,
                recovered=False,
                reason=reason,
                checkpoint=checkpoint,
                movable_ops=movable,
                relocated_ops=tuple(relocated),
                nominal_makespan_s=checkpoint.nominal_makespan,
                replace_s=replace_s,
                reroute_s=reroute_s,
                recovery_s=time.perf_counter() - t0,
                rung=rung,
                **extra,
            )

        t0 = time.perf_counter()
        replace_s = reroute_s = 0.0
        nominal_placement = result.placement_result.placement
        movable = tuple(
            op for op in checkpoint.pending if op in nominal_placement
        )
        relocated: list[str] = []
        all_faults = faults + tuple(f for f in known if f not in faults)

        if rung == "reroute":
            # Suffix re-route is sound only when every still-needed
            # module sits clear of the dead cells; a hit module needs a
            # higher rung, and the engine says so instead of silently
            # escalating (the ladder's rung accounting depends on it).
            hit = sorted(
                op
                for op in (*checkpoint.pending, *checkpoint.in_flight)
                if op in nominal_placement
                and any(
                    nominal_placement.get(op).footprint.contains_point(f)
                    for f in faults
                )
            )
            if hit:
                return failed(
                    "suffix re-route alone cannot clear module(s) "
                    f"{', '.join(hit)} off the dead cell(s)"
                )
            movable = ()

        # -- phase 1: re-place the pending modules ------------------------
        # Sub-passes: a best-effort relocation of directly-hit modules
        # (single-module legality), then the warm-started anneal (can
        # shuffle several pending modules jointly when no single-module
        # site exists), then a final relocation retry on the annealed
        # layout. The ``relocate`` rung stops after the first pass. Every
        # rung works on the chip's claimable core, in the same
        # coordinates, and keeps modules off its port cells.
        chip = result.chip
        blocked = all_faults + tuple(p for p in chip.reserved if p not in all_faults)
        conservative = chip.claimable(nominal_placement)
        relocated, unresolved = self._rescue_hit_modules(
            conservative, movable, blocked
        )
        if rung == "relocate":
            replace_s = time.perf_counter() - t0
            if unresolved:
                return failed(
                    "no fault-free MER site for pending module(s) "
                    f"{', '.join(unresolved)}"
                )
            if not relocated:
                return failed(
                    "no pending module covers a dead cell; nothing to relocate"
                )
        annealed = conservative
        if movable and rung != "relocate":
            annealed = self._warm_anneal(
                conservative,
                movable,
                all_faults,
                blocked,
                nominal_placement,
                seed,
                resynth=rung == "resynth",
            )
            still_hit, _ = self._rescue_hit_modules(annealed, movable, blocked)
            relocated = sorted(set(relocated) | set(still_hit))
        replace_s = time.perf_counter() - t0

        # Two candidate layouts, tried in order: the annealed one
        # (optimized, minimal-perturbation), then the conservative
        # relocation-only one as a fallback when the annealed layout's
        # replay or plan fails — an online controller prefers a recovered
        # assay over an optimized-but-unroutable layout.
        candidates = [annealed]
        if annealed is not conservative and any(
            annealed.get(op) != conservative.get(op) for op in movable
        ):
            candidates.append(conservative)

        outcome: RecoveryOutcome | None = None
        for working in candidates:
            if not working.is_feasible():
                attempt = failed("re-placement left overlapping modules")
            else:
                attempt = self._attempt(
                    result, checkpoint, working, nominal_placement, movable,
                    relocated, faults, known, all_faults, fault_time_s,
                    replace_s, t0,
                    require_plan=rung != "resynth",
                )
                attempt.rung = rung
                if not attempt.recovered:
                    # A pending module the placement layer could not pull
                    # off the dead cell was delegated to the simulator's
                    # own partial reconfiguration (it has the whole chip
                    # to work with); if the replay still failed, name
                    # the stuck module in the report.
                    offending = [
                        op
                        for op in movable
                        if any(
                            working.get(op).footprint.contains_point(f)
                            for f in all_faults
                        )
                    ]
                    if offending:
                        attempt.reason = (
                            "no fault-free placement for pending module(s) "
                            f"{', '.join(offending)}; {attempt.reason}"
                        )
            if outcome is None:
                outcome = attempt
            if attempt.recovered:
                return attempt
        assert outcome is not None
        return outcome

    def _attempt(
        self,
        result: SynthesisResult,
        checkpoint: SimCheckpoint,
        working: Placement,
        nominal_placement: Placement,
        movable: tuple[str, ...],
        relocated,
        faults: tuple[Point, ...],
        known: tuple[Point, ...],
        all_faults: tuple[Point, ...],
        fault_time_s: float,
        replace_s: float,
        t0: float,
        require_plan: bool = True,
    ) -> RecoveryOutcome:
        """Suffix re-route + resumed replay for one candidate layout.

        *require_plan* is the graceful-degradation knob: when False
        (the ladder's last rung before abort), a suffix net the router
        could not close does not fail the recovery by itself — the
        resumed replay's own partial reconfiguration handles those
        transports ad hoc, and the replay's verified completion is the
        arbiter. The degradation stays visible: ``plan_verified`` is
        False on such outcomes.
        """
        # -- phase 2: re-route the suffix ----------------------------------
        # Strictly-before split: an epoch released exactly at the fault
        # instant executes against the already-dead cell, so it belongs
        # to the re-routed suffix, never the kept prefix.
        t1 = time.perf_counter()
        prefix_epochs = tuple(
            e
            for e in (result.routing_plan.epochs if result.routing_plan else ())
            if e.time_s < fault_time_s
        )
        step_offset = sum(e.makespan_steps for e in prefix_epochs)
        chip = result.chip
        suffix = self.synthesizer.synthesize(
            result.graph,
            result.schedule,
            working,
            chip,
            faulty_cells=all_faults,
            after_time=fault_time_s,
            step_offset=step_offset,
        )
        merged = RoutingPlan(
            width=chip.width,
            height=chip.height,
            epochs=prefix_epochs + suffix.epochs,
            margin=chip.margin,
        )
        reroute_s = time.perf_counter() - t1
        plan_ok = True
        plan_reason = None
        if suffix.failed_count:
            plan_ok = False
            plan_reason = (
                f"{suffix.failed_count} suffix net(s) unroutable around the fault"
            )
        else:
            try:
                merged.verify()
            except RoutingError as exc:
                plan_ok = False
                plan_reason = f"recovered plan failed verification: {exc}"

        # -- phase 3: resume from the checkpoint ---------------------------
        sim = self.simulator(result, working, merged, known + faults)
        sim_faults = [(0.0, chip.cell(f)) for f in known] + [
            (fault_time_s, chip.cell(f)) for f in faults
        ]
        report = sim.report(sim_faults)

        moved = tuple(
            op
            for op in movable
            if (working.get(op).x, working.get(op).y, working.get(op).rotated)
            != (
                nominal_placement.get(op).x,
                nominal_placement.get(op).y,
                nominal_placement.get(op).rotated,
            )
        )
        recovered = report.completed and (plan_ok or not require_plan)
        reason = None
        if not report.completed:
            reason = f"resumed replay failed: {report.failure_reason}"
        elif not plan_ok and require_plan:
            reason = plan_reason
        return RecoveryOutcome(
            fault_time_s=fault_time_s,
            fault_cells=faults,
            recovered=recovered,
            reason=reason,
            checkpoint=checkpoint,
            movable_ops=movable,
            relocated_ops=tuple(relocated),
            moved_ops=moved,
            nominal_makespan_s=checkpoint.nominal_makespan,
            recovered_makespan_s=report.realized_makespan,
            replace_s=replace_s,
            reroute_s=reroute_s,
            recovery_s=time.perf_counter() - t0,
            reused_epochs=len(prefix_epochs),
            suffix_epochs=len(suffix.epochs),
            rerouted_nets=suffix.routed_count,
            plan_verified=plan_ok,
            placement=working,
            routing_plan=merged,
            sim_report=report,
        )

    # -- phase-1 helpers ------------------------------------------------------

    def _rescue_hit_modules(
        self, working: Placement, movable: tuple[str, ...], faults: tuple[Point, ...]
    ) -> tuple[list[str], list[str]]:
        """Best-effort relocation of every pending module whose
        footprint covers a dead cell (mutates *working* in place).
        Returns ``(relocated, unresolved)`` — a module with no
        single-module fault-free site is left for the joint anneal."""
        relocated: list[str] = []
        unresolved: list[str] = []
        for op in movable:
            pm = working.get(op)
            if not any(pm.footprint.contains_point(f) for f in faults):
                continue
            try:
                working.replace(self.reconfigurer.find_target(working, pm, faults))
                relocated.append(op)
            except ReconfigurationError:
                unresolved.append(op)
        return relocated, unresolved

    def _warm_anneal(
        self,
        working: Placement,
        movable: tuple[str, ...],
        faults: tuple[Point, ...],
        blocked: tuple[Point, ...],
        nominal: Placement,
        seed: int | random.Random | None,
        resynth: bool,
    ) -> Placement:
        """Warm-started low-temperature anneal of the pending modules
        around the frozen ones, anchored to the nominal layout, keeping
        them off the dead *faults*. Falls back to the pre-anneal
        placement when the anneal's best is worse off: infeasible, or
        covering more *blocked* cells (the dead cells and the chip's
        port cells) than the input.
        The ``resynth`` rung anneals on the hotter balanced schedule, so
        the layout can escape the nominal basin, and drops the anchor
        (the nominal basin no longer binds).
        """
        rng = ensure_rng(seed)
        params = AnnealingParams.balanced() if resynth else self.annealing
        window = params.make_window(
            max_span=max(working.core_width, working.core_height)
        )
        mover = MoveGenerator(window=window, movable=movable, seed=spawn_rng(rng))
        engine = SimulatedAnnealing(params, window=window, seed=rng)
        cost = FaultAvoidanceCost(
            faults,
            anchors={op: (nominal.get(op).x, nominal.get(op).y) for op in movable},
            anchor_weight=0.0 if resynth else ANCHOR_WEIGHT,
        )
        evaluator = IncrementalCostEvaluator(working.copy())
        inner = params.iterations_per_module * len(movable)
        best, _stats = engine.optimize_incremental(
            evaluator, cost, mover, inner, record_history=False
        )

        def hits(placement: Placement) -> int:
            return sum(
                1
                for op in movable
                for f in blocked
                if placement.get(op).footprint.contains_point(f)
            )

        if not best.is_feasible() or hits(best) > hits(working):
            return working
        return best
