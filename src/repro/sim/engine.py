"""Execution of a placed, scheduled bioassay on a simulated array.

The engine replays an assay on a simulated electrowetting array in the
two steps of the paper's partial reconfiguration:

1. A *realized timeline* is derived from the nominal schedule. Without
   faults it equals the schedule; each fault entry, in timeline order,
   triggers the detect -> partially-reconfigure -> restart loop on the
   affected module, and the delay propagates to data-dependent successors.
2. A *droplet replay* then executes operations in realized order
   ``(realized start, op id)``: reagent droplets are dispensed at
   boundary ports, routed (with fluidic constraints, around operating
   modules and faulty cells) to their module's functional region,
   merged, held for the operation time, and the product forwarded —
   ending with the assay product leaving through the output port.

No dispatch feeds back into the timeline, so the driver is exactly
these two loops. The replay *verifies* the configuration: an
infeasible placement, an unroutable transport, or a failed relocation
all surface as a failed :class:`SimulationReport` naming the cause.
Ad-hoc transports run on the bitboard BFS kernel
:class:`~repro.sim.fastgrid.PackedDropletRouter`, and a product's
parking cell comes from a ring search over one padded ``bytearray``.

A run is a pure function of ``(simulator, faults)``: everything it
mutates lives in a run record that :meth:`BiochipSimulator.run` creates
and drops, so the simulator is unchanged once built. A completed report
carries its realized intervals and durable droplet-position log, and a
:class:`SimCheckpoint` is a cut of that report at one instant
(:func:`checkpoint_at`). :meth:`BiochipSimulator.report` memoizes
reports by fault list; :meth:`BiochipSimulator.run` always replays.
The test suite keeps the original
fixed-timestep driver as an oracle (``tests/oracles/``) and asserts
bit-identical reports against it.
"""

from __future__ import annotations

import itertools
from collections import deque
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field

from repro.assay.graph import SequencingGraph
from repro.assay.operations import OperationType
from repro.fault.reconfigure import PartialReconfigurer, Relocation
from repro.geometry import Point, Rect
from repro.placement.chip import Chip
from repro.placement.model import PlacedModule, Placement
from repro.routing.plan import RoutingPlan, chebyshev
from repro.sim.droplet import Droplet
from repro.sim.electrowetting import ElectrowettingModel
from repro.sim.fastgrid import PackedDropletRouter
from repro.util.errors import (
    ReconfigurationError,
    RecoveryError,
    RoutingError,
    SimulationError,
)

#: Default dispensed droplet volume, nanoliters (order of the reference
#: chips' unit droplet at 1.5 mm pitch / 600 um gap).
UNIT_DROPLET_NL = 900.0

#: Electrode drive voltage every transport runs at, volts (inside the
#: paper's 0-90 V actuation range).
DRIVE_VOLTAGE = 65.0


@dataclass(frozen=True)
class SimEvent:
    """One timestamped entry of the simulation log."""

    time: float
    kind: str  # dispense | transport | op-start | op-finish | fault | repair | relocation | output
    detail: str
    op_id: str | None = None

    def __str__(self) -> str:
        tag = f" [{self.op_id}]" if self.op_id else ""
        return f"t={self.time:7.2f}s {self.kind:<11}{tag} {self.detail}"


@dataclass
class SimulationReport:
    """Everything the engine observed during one run."""

    completed: bool
    events: list[SimEvent]
    realized_finish: dict[str, float]
    relocations: list[Relocation]
    nominal_makespan: float
    #: Finish time of the last operation; ``None`` for a failed run,
    #: which finished nothing.
    realized_makespan: float | None
    total_transport_cells: int
    product: Droplet | None
    final_placement: Placement
    failure_reason: str | None = None
    #: Transports replayed from a precomputed routing plan (vs routed
    #: ad hoc on the bitboard BFS kernel).
    planned_transports: int = 0
    #: Realized ``op_id -> (start, finish)``, ordered by op id (empty
    #: for a failed run). Not part of :meth:`to_dict`.
    realized: dict[str, tuple[float, float]] = field(default_factory=dict)
    #: Durable droplet-position transitions ``(time, producer op,
    #: cell-or-None)``, in replay order (empty for a failed run). Not
    #: part of :meth:`to_dict`.
    position_log: tuple[tuple[float, str, Point | None], ...] = ()

    @property
    def delay_s(self) -> float | None:
        """Extra completion time caused by faults/recovery (``None``
        for a failed run)."""
        if self.realized_makespan is None:
            return None
        return self.realized_makespan - self.nominal_makespan

    def to_dict(self) -> dict:
        """JSON-safe run summary: outcome, timing, transport accounting."""
        return {
            "completed": self.completed,
            "failure_reason": self.failure_reason,
            "nominal_makespan_s": self.nominal_makespan,
            "realized_makespan_s": self.realized_makespan,
            "delay_s": self.delay_s,
            "total_transport_cells": self.total_transport_cells,
            "planned_transports": self.planned_transports,
            "relocations": len(self.relocations),
            "events": len(self.events),
            "realized_finish": dict(self.realized_finish),
        }

    def summary(self) -> str:
        """Short human-readable account of the run."""
        status = "completed" if self.completed else f"FAILED ({self.failure_reason})"
        realized = (
            "realized -" if self.realized_makespan is None
            else f"realized {self.realized_makespan:g} s "
            f"(delay {self.delay_s:g} s)"
        )
        lines = [
            f"simulation {status}",
            f"nominal makespan {self.nominal_makespan:g} s, {realized}",
            f"droplet transport: {self.total_transport_cells} cell-moves",
            f"relocations: {len(self.relocations)}",
        ]
        if self.product is not None:
            lines.append(f"product: {self.product}")
        return "\n".join(lines)


def replay_events(faults: Sequence, report: SimulationReport) -> int:
    """Events one replay handles: each fault-timeline entry, then each
    dispatched operation. A failed report realizes no operation, so it
    counts its fault entries alone."""
    return len(faults) + len(report.realized_finish)


@dataclass
class _OpState:
    """Internal per-operation bookkeeping."""

    op_id: str
    module: PlacedModule | None  # None for dispense/output
    start: float
    finish: float
    restarted: bool = False


#: Fault-injection kinds: a cell dies / a transient cell heals.
_FAULT_KINDS = ("fail", "clear")

#: One normalized fault-timeline entry: ``(time, cell, kind)``.
FaultEntry = tuple[float, Point, str]


def _normalize_faults(faults) -> list[FaultEntry]:
    """Normalize fault injections to time-sorted ``(time, cell, kind)``.

    Accepts the historical ``(time, cell)`` pairs (kind defaults to
    ``"fail"`` — permanent faults) alongside explicit triples, so every
    existing caller keeps working while fault models inject
    self-clearing timelines. The sort is stable: same-instant entries
    keep their given order (a caller listing ``fail`` before ``clear``
    at one instant means exactly that).
    """
    out: list[FaultEntry] = []
    for entry in faults:
        if len(entry) == 2:
            t, c = entry
            kind = "fail"
        else:
            t, c, kind = entry
            if kind not in _FAULT_KINDS:
                raise ValueError(
                    f"fault kind must be one of {_FAULT_KINDS}, got {kind!r}"
                )
        out.append((float(t), Point(*c), kind))
    out.sort(key=lambda fck: fck[0])
    return out


def active_fault_cells(faults: Iterable[FaultEntry], now: float) -> list[Point]:
    """Cells faulty at instant *now* under the (time-sorted) timeline of
    ``(time, cell, kind)`` entries: fails add a cell, clears remove it,
    first-failure order preserved."""
    active: dict[Point, None] = {}
    for t, cell, kind in faults:
        if t > now:
            break
        if kind == "fail":
            active[cell] = None
        else:
            active.pop(cell, None)
    return list(active)


def _nearest_safe_cell(
    width: int, height: int, start: Point, parked, faulty, claiming
) -> Point | None:
    """FIFO ring search from the on-array cell *start* for the first
    other cell of the ``width x height`` array that no *parked* droplet,
    *faulty* cell or *claiming* footprint covers (None if there is none).

    The array is one padded, x-major ``bytearray`` (cell ``(x, y)`` at
    ``x * (height + 2) + y``) marking each cell safe (0), unsafe and
    unseen (1), or seen or off the array (2); steps run in
    :meth:`Point.neighbors4` order. Cells leave the queue in the order
    they enter it, so the first safe cell entered is the answer.
    """
    stride = height + 2
    edge = b"\x02" * stride
    board = bytearray(edge + (b"\x02" + bytes(height) + b"\x02") * width + edge)
    for fp in claiming:
        y1, y2 = max(fp.y, 1), min(fp.y + fp.height - 1, height)
        if y1 > y2:
            continue
        run = b"\x01" * (y2 - y1 + 1)
        for x in range(max(fp.x, 1), min(fp.x + fp.width - 1, width) + 1):
            board[x * stride + y1 : x * stride + y2 + 1] = run
    for x, y in itertools.chain(parked, faulty):
        if 1 <= x <= width and 1 <= y <= height:
            board[x * stride + y] = 1
    i = start[0] * stride + start[1]
    board[i] = 2
    queue = deque([i])
    steps = (stride, -stride, 1, -1)
    while queue:
        i = queue.popleft()
        for step in steps:
            n = i + step
            mark = board[n]
            if mark == 0:
                return Point(*divmod(n, stride))
            if mark == 1:
                board[n] = 2
                queue.append(n)
    return None


#: Reports :meth:`BiochipSimulator.report` keeps, keyed by normalized
#: fault list: a replay is a pure function of its faults, so an entry
#: never goes stale; the cap only bounds memory.
_REPORT_MEMO_SIZE = 8


@dataclass(frozen=True)
class SimCheckpoint:
    """Live mid-assay state captured at one instant of a simulation.

    A cut of a completed report at one instant (:func:`checkpoint_at`,
    reached through :meth:`BiochipSimulator.checkpoint`): the operation
    classification (completed / in-flight / pending), the realized
    intervals, and the parked-droplet map are the *live state* at
    ``time_s``, while the recorded fault history makes resumption an
    exact deterministic replay: ``run(faults=[*cp.faults, *new])``
    with no new fault reproduces the original event trace
    bit-identically (property-tested in
    ``tests/test_recovery_checkpoint.py``). All cells are in simulator
    coordinates.
    """

    #: Instant the checkpoint was taken at (seconds).
    time_s: float
    #: Every fault event that had fired by ``time_s``, normalized to
    #: ``(time, cell, kind)`` (kind ``"fail"`` or ``"clear"``).
    faults: tuple[FaultEntry, ...]
    #: Operations whose realized interval ended at or before ``time_s``.
    completed: tuple[str, ...]
    #: Operations running at ``time_s`` (their modules are frozen:
    #: droplets are physically inside them).
    in_flight: tuple[str, ...]
    #: Operations that had not started — the re-synthesizable suffix.
    pending: tuple[str, ...]
    #: Realized ``op_id -> (start, finish)`` intervals under the
    #: recorded faults.
    realized: dict[str, tuple[float, float]] = field(default_factory=dict)
    #: Products sitting parked on the array at ``time_s``
    #: (``producer op -> cell``); droplets inside in-flight modules are
    #: represented by the module, not listed here.
    droplet_positions: dict[str, Point] = field(default_factory=dict)
    #: Event-log prefix (``time <= time_s``), for trace comparison.
    events_prefix: tuple[SimEvent, ...] = ()
    #: The run's nominal makespan (for penalty accounting downstream).
    nominal_makespan: float = 0.0

    def to_dict(self) -> dict:
        """JSON-safe summary (the event prefix condensed to a count)."""
        return {
            "time_s": self.time_s,
            "faults": [
                [f[0], [f[1][0], f[1][1]], f[2] if len(f) > 2 else "fail"]
                for f in self.faults
            ],
            "completed": list(self.completed),
            "in_flight": list(self.in_flight),
            "pending": list(self.pending),
            "realized": {o: list(iv) for o, iv in self.realized.items()},
            "droplet_positions": {
                o: [p.x, p.y] for o, p in sorted(self.droplet_positions.items())
            },
            "events_prefix": len(self.events_prefix),
            "nominal_makespan_s": self.nominal_makespan,
        }

    def validate(self, schedule) -> None:
        """Reject a corrupted or truncated checkpoint with a clear error.

        The check guards a checkpoint a caller passes to
        ``OnlineRecoveryEngine.recover(checkpoint=...)``, which the
        engine does not rebuild itself; consuming a mangled one must
        raise :class:`~repro.util.errors.RecoveryError` naming the
        inconsistency — never a bare ``KeyError``/``IndexError`` from
        deep inside the replay. *schedule* is the nominal schedule the
        checkpoint claims to classify.
        """

        def bad(detail: str) -> RecoveryError:
            return RecoveryError(f"corrupt checkpoint (t={self.time_s:g}): {detail}")

        if not isinstance(self.time_s, (int, float)) or self.time_s < 0:
            raise bad(f"checkpoint instant must be >= 0, got {self.time_s!r}")
        buckets = (*self.completed, *self.in_flight, *self.pending)
        if len(set(buckets)) != len(buckets):
            seen, dupes = set(), set()
            for op in buckets:
                (dupes if op in seen else seen).add(op)
            raise bad(f"operations classified twice: {sorted(dupes)}")
        scheduled = set(schedule.op_ids())
        if set(buckets) != scheduled:
            missing = sorted(scheduled - set(buckets))
            extra = sorted(set(buckets) - scheduled)
            raise bad(
                "classification does not partition the schedule "
                f"(missing {missing}, unknown {extra})"
            )
        unknown = sorted(set(self.realized) - scheduled)
        if unknown:
            raise bad(f"realized intervals for unscheduled operations: {unknown}")
        for op in (*self.completed, *self.in_flight):
            if op not in self.realized:
                raise bad(f"started operation {op!r} has no realized interval")
        eps = 1e-9
        for op, (start, finish) in self.realized.items():
            if finish < start:
                raise bad(
                    f"realized interval of {op!r} runs backwards "
                    f"({start:g} -> {finish:g})"
                )
            if op in self.completed and finish > self.time_s + eps:
                raise bad(
                    f"completed operation {op!r} finishes at {finish:g}, "
                    "after the checkpoint instant"
                )
            if op in self.in_flight and start > self.time_s + eps:
                raise bad(
                    f"in-flight operation {op!r} starts at {start:g}, "
                    "after the checkpoint instant"
                )
        unknown = sorted(set(self.droplet_positions) - scheduled)
        if unknown:
            raise bad(f"parked droplets from unscheduled operations: {unknown}")
        # Index (not unpack): entries may be legacy ``(t, cell)`` pairs,
        # and this validator must reject mangled shapes with its own
        # error, not trip over them.
        late = [f"t={f[0]:g}" for f in self.faults if f[0] > self.time_s + eps]
        if late:
            raise bad(f"recorded faults after the checkpoint instant: {late}")
        stale = [e for e in self.events_prefix if e.time > self.time_s + eps]
        if stale:
            raise bad(
                f"event-log prefix contains {len(stale)} event(s) after "
                "the checkpoint instant (stale or truncated prefix)"
            )


def checkpoint_at(
    report: SimulationReport, time_s: float, faults: Iterable[tuple] = ()
) -> SimCheckpoint:
    """Cut a completed *report* at *time_s*: the live state at that
    instant under *faults*, the fault list the report was run with.

    Raises :class:`SimulationError` for a failed report (there is no
    consistent state to capture).
    """
    if not report.completed:
        raise SimulationError(f"cannot checkpoint a failed run: {report.failure_reason}")
    completed: list[str] = []
    in_flight: list[str] = []
    pending: list[str] = []
    for op_id, (start, finish) in report.realized.items():
        if finish <= time_s:
            completed.append(op_id)
        elif start <= time_s:
            in_flight.append(op_id)
        else:
            pending.append(op_id)
    positions: dict[str, Point] = {}
    for t, op_id, p in report.position_log:
        if t <= time_s:
            if p is None:
                positions.pop(op_id, None)
            else:
                positions[op_id] = p
    return SimCheckpoint(
        time_s=time_s,
        faults=tuple(_normalize_faults(faults)),
        completed=tuple(completed),
        in_flight=tuple(in_flight),
        pending=tuple(pending),
        realized=dict(report.realized),
        droplet_positions=positions,
        events_prefix=tuple(e for e in report.events if e.time <= time_s),
        nominal_makespan=report.nominal_makespan,
    )


@dataclass
class _Run:
    """Everything one :meth:`BiochipSimulator.run` mutates. The run
    creates it and drops it on return, so the simulator itself never
    changes: a replay is a pure function of its fault list."""

    faults: list[FaultEntry]
    #: The live configuration; a relocation replaces it.
    placement: Placement
    states: dict[str, _OpState]
    events: list[SimEvent] = field(default_factory=list)
    relocations: list[Relocation] = field(default_factory=list)
    #: Droplets produced so far, by producer op.
    droplet_of: dict[str, Droplet] = field(default_factory=dict)
    #: Reservoir rotation: the next port to dispense from.
    next_port: int = 0
    droplet_ids: Iterator[int] = field(default_factory=lambda: itertools.count(1))
    #: (time, producer op, cell-or-None) transitions of durable droplet
    #: positions, appended in replay order; a checkpoint derives "what
    #: sits where at time t" from this log.
    position_log: list[tuple[float, str, Point | None]] = field(default_factory=list)
    planned_transports: int = 0
    #: Fan-out shares collected so far, by producer op.
    shares_taken: dict[str, int] = field(default_factory=dict)
    #: Metered reagent droplets still waiting in their reservoir.
    reservoir_queue: set[str] = field(default_factory=set)
    #: The dispatch index: ``(op id, start, finish, footprint)`` of each
    #: state that has a module, in states order, built once the fault
    #: loop has fixed every realized interval and module.
    spans: list[tuple[str, float, float, Rect]] = field(default_factory=list)


class BiochipSimulator:
    """Executes one synthesized assay on a simulated array."""

    def __init__(
        self,
        graph: SequencingGraph,
        schedule,
        binding,
        placement: Placement,
        chip: Chip,
        routing_plan: RoutingPlan | None = None,
        plan_covers_faults: Iterable[Point | tuple[int, int]] = (),
    ) -> None:
        self.graph = graph
        self.schedule = schedule
        self.binding = binding
        self.routing_plan = routing_plan
        self.ew = ElectrowettingModel()
        self.reconfigurer = PartialReconfigurer()

        #: The array the assay runs on; a plan cell is a replay cell.
        self.chip = chip
        if routing_plan is not None:
            planned_on = Chip(routing_plan.width, routing_plan.height, routing_plan.margin)
            if planned_on != chip:
                raise SimulationError(f"routing plan is on {planned_on}, not {chip}")
        #: Faults the routing plan was computed against, given in
        #: placement coordinates and held in chip cells. Planned
        #: transports normally stop replaying the moment any fault fires
        #: (the plan knows nothing about it); a *recovery* plan
        #: re-synthesized against a known fault mask is declared here so
        #: its transports keep replaying.
        self.plan_covers_faults = frozenset(map(chip.cell, plan_covers_faults))
        self.placement = chip.embed(placement)
        self.placement.validate()
        #: Packed transport kernel every ad-hoc transport routes on.
        self.router = PackedDropletRouter(chip.width, chip.height)
        #: Reports by normalized fault list, for :meth:`report`.
        self._report_memo: dict[tuple, SimulationReport] = {}
        #: Parking ring-search memo: obstacle signature -> nearest safe
        #: cell.
        self._park_memo: dict[tuple, Point] = {}
        self._dispense_cycle = chip.dispense_ports  # used in rotation

    def _next_dispense_cell(self, run: _Run) -> Point:
        cell = self._dispense_cycle[run.next_port % len(self._dispense_cycle)]
        run.next_port += 1
        return cell

    # -- public API -------------------------------------------------------------------

    def run(self, faults: Iterable[tuple] = ()) -> SimulationReport:
        """Execute the assay, injecting each fault-timeline entry.

        Entries are ``(time, cell)`` pairs (permanent faults, the
        historical form) or ``(time, cell, kind)`` triples with kind
        ``"fail"`` or ``"clear"`` — the form fault models emit for
        transient/intermittent faults. Fault cells are chip cells; use
        :meth:`module_cell` to aim at a particular module, or
        ``chip.cell`` to map placement coordinates.

        A ``clear`` repairs the cell from its instant on (later
        transports may route through it again); it does **not** undo
        relocations or delays the earlier ``fail`` already caused —
        the controller cannot foresee self-recovery, so the rescue it
        triggered stands.

        A run that cannot finish — an unrecoverable fault, an unroutable
        transport — returns a failed report naming the cause.
        """
        run = _Run(_normalize_faults(faults), self.placement, self._initial_states())
        try:
            product, transport = self._execute(run)
        except (RoutingError, ReconfigurationError, SimulationError) as exc:
            return SimulationReport(
                completed=False,
                events=run.events,
                realized_finish={},
                relocations=run.relocations,
                nominal_makespan=self.schedule.makespan,
                realized_makespan=None,
                total_transport_cells=0,
                product=None,
                final_placement=run.placement,
                failure_reason=str(exc),
                planned_transports=run.planned_transports,
            )

        states = run.states
        realized_finish = {s.op_id: s.finish for s in states.values()}
        return SimulationReport(
            completed=True,
            events=sorted(run.events, key=lambda e: (e.time, e.kind)),
            realized_finish=realized_finish,
            relocations=run.relocations,
            nominal_makespan=self.schedule.makespan,
            realized_makespan=max(realized_finish.values(), default=0.0),
            total_transport_cells=transport,
            product=product,
            final_placement=run.placement,
            planned_transports=run.planned_transports,
            realized={op: (states[op].start, states[op].finish) for op in sorted(states)},
            position_log=tuple(run.position_log),
        )

    def module_cell(self, op_id: str) -> Point:
        """A functional-region cell of *op_id*'s module (fault targeting)."""
        pm = self.placement.get(op_id)
        return next(iter(pm.functional_region.cells()))

    def checkpoint(
        self,
        time_s: float,
        faults: Iterable[tuple] = (),
    ) -> SimCheckpoint:
        """Capture the live state at *time_s* under the faults fired so far.

        Runs the (deterministic) simulation with exactly *faults* — all
        of which must have fired by *time_s*; a checkpoint cannot know
        the future — and cuts the report at *time_s* (:func:`checkpoint_at`).
        Raises :class:`SimulationError` when the underlying run does not
        complete (there is no consistent state to capture).

        The report comes from :meth:`report`, so checkpointing one fault
        list at many instants replays it once.
        """
        fault_list = _normalize_faults(faults)
        late = [f for f in fault_list if f[0] > time_s]
        if late:
            raise ValueError(
                f"checkpoint at t={time_s:g} cannot include future faults: {late}"
            )
        return checkpoint_at(self.report(fault_list), time_s, fault_list)

    def report(self, faults: Iterable[tuple] = ()) -> SimulationReport:
        """:meth:`run`'s report under *faults*, memoized by normalized
        fault list: the last :data:`_REPORT_MEMO_SIZE` reports, failed
        ones included, most recently used last. A replay is a pure
        function of its faults, so an entry never goes stale. The
        report is shared with every later caller of the same fault
        list, who must not mutate it.

        :meth:`run` itself always replays: it is the replay, and what
        times or counts replays (the bench, a tracer) wraps it.
        """
        key = tuple(_normalize_faults(faults))
        memo = self._report_memo
        report = memo.pop(key, None)
        if report is None:
            report = self.run(faults=key)
        memo[key] = report
        if len(memo) > _REPORT_MEMO_SIZE:
            del memo[next(iter(memo))]
        return report

    # -- phase 1: realized timeline ----------------------------------------------------

    def _initial_states(self) -> dict[str, _OpState]:
        """Per-operation state seeded from the nominal schedule."""
        states: dict[str, _OpState] = {}
        for op in self.graph:
            if op.id not in self.schedule:
                continue
            iv = self.schedule.interval(op.id)
            module = self.placement.get(op.id) if op.id in self.placement else None
            states[op.id] = _OpState(op.id, module, iv.start, iv.stop)
        return states

    def _apply_clear(self, clear_time: float, cell: Point, run: _Run) -> None:
        """A transient fault self-recovers: the cell routes again from
        ``clear_time`` on (via the active-fault timeline); relocations
        and delays its ``fail`` already caused are *not* rolled back —
        the controller could not have known the fault would clear."""
        run.events.append(
            SimEvent(clear_time, "repair", f"cell {cell} recovered (transient fault cleared)")
        )

    def _apply_fault(self, fault_time: float, cell: Point, run: _Run) -> None:
        """Inject one fault: rescue affected modules via partial
        reconfiguration, and propagate the delays."""
        states = run.states
        run.events.append(
            SimEvent(fault_time, "fault", f"cell {cell} failed", None)
        )
        # Only modules still running or yet to run can be rescued;
        # completed operations already consumed their cells.
        pending = [
            s for s in states.values()
            if s.module is not None
            and s.finish > fault_time
            and s.module.footprint.contains_point(cell)
        ]
        pending_ids = {s.op_id for s in pending}
        for state in sorted(pending, key=lambda s: s.start):
            try:
                run.placement, plan = self.reconfigurer.apply(
                    run.placement,
                    cell,
                    extra_faults=[
                        f for f in active_fault_cells(run.faults, fault_time)
                        if f != cell
                    ],
                    only_ops=pending_ids,
                )
            except ReconfigurationError:
                raise SimulationError(
                    f"fault at {cell} (t={fault_time:g}) is unrecoverable for "
                    f"operation {state.op_id}"
                ) from None
            for reloc in plan.relocations:
                run.relocations.append(reloc)
                # Refresh every affected state's module reference.
                if reloc.op_id in states:
                    states[reloc.op_id].module = reloc.new
                migrate = self.ew.transport_time_s(
                    reloc.distance, DRIVE_VOLTAGE
                )
                run.events.append(
                    SimEvent(
                        fault_time,
                        "relocation",
                        f"{reloc} (migration {migrate:.3f} s)",
                        reloc.op_id,
                    )
                )
                moved = states.get(reloc.op_id)
                if moved is not None and moved.start <= fault_time < moved.finish:
                    # Running op: droplets migrate, the mix restarts
                    # (its dispatch time is unchanged).
                    duration = moved.finish - moved.start
                    moved.finish = fault_time + migrate + duration
                    moved.restarted = True
        # Propagate delays along dependencies.
        self._propagate(states)

    def _propagate(self, states: dict[str, _OpState]) -> None:
        for op_id in self.graph.topological_order():
            if op_id not in states:
                continue
            state = states[op_id]
            ready = max(
                (states[p].finish for p in self.graph.predecessors(op_id) if p in states),
                default=0.0,
            )
            new_start = max(self.schedule.start(op_id), ready)
            if new_start > state.start and not state.restarted:
                duration = state.finish - state.start
                state.start = new_start
                state.finish = new_start + duration

    # -- phase 2: droplet replay ---------------------------------------------------------

    def _sink_product(self, droplet_of: dict[str, Droplet]) -> Droplet | None:
        # Mixing-only graphs end at the sink mix; its droplet is the product.
        sinks = [s for s in self.graph.sinks() if s in droplet_of]
        return droplet_of[sinks[0]] if sinks else None

    def _execute_op(self, op_id: str, run: _Run) -> tuple[int, Droplet | None]:
        """Execute one operation at its realized start: collect inputs,
        transport, merge, hold, park. Returns ``(transport cells, assay
        product or None)``. Every dispatch goes through here, in the
        total order ``(realized start, op id)`` (see DESIGN.md)."""
        op = self.graph.operation(op_id)
        state = run.states[op_id]
        events = run.events
        droplet_of = run.droplet_of
        t = state.start
        faulty_now = active_fault_cells(run.faults, t)
        parked = [
            d.position
            for d in droplet_of.values()
            if d.position is not None
        ]

        if op.type is OperationType.DISPENSE:
            # Lazy dispensing: the reservoir meters the droplet when
            # its consumer collects it — parking droplets at ports
            # for seconds would wall off the boundary lanes.
            reagent = op.params.get("reagent", op.id)
            droplet_of[op_id] = Droplet(
                position=None,
                contents={reagent: UNIT_DROPLET_NL},
                droplet_id=next(run.droplet_ids),
                produced_by=op_id,
            )
            run.reservoir_queue.add(op_id)
            events.append(SimEvent(t, "dispense", f"{reagent} metered", op_id))
            return 0, None

        if op.type is OperationType.OUTPUT:
            inputs = self._input_droplets(op_id, run)
            if len(inputs) != 1:
                raise SimulationError(
                    f"output {op_id} expects exactly one droplet, got {len(inputs)}"
                )
            droplet = inputs[0]
            others = [p for p in parked if p != droplet.position]
            out = self.chip.output_port
            transport_cells = self._transport(
                droplet, out, t, faulty_now, others, run, op_id
            )
            events.append(SimEvent(state.finish, "output", f"{droplet}", op_id))
            droplet.position = None
            droplet_of[op_id] = droplet
            return transport_cells, droplet

        # Reconfigurable operation on a placed module.
        module = state.module
        if module is None:
            raise SimulationError(f"operation {op_id} has no placed module")
        self._check_module_health(module, faulty_now, op_id)
        inputs = self._input_droplets(op_id, run)
        inputs.extend(self._auto_dispense(op, len(inputs), t, run))
        input_positions = {d.position for d in inputs}
        others = [p for p in parked if p not in input_positions]
        targets = list(module.functional_region.cells())
        transport_cells = 0
        for i, droplet in enumerate(inputs):
            goal = targets[min(i, len(targets) - 1)]
            transport_cells += self._transport(
                droplet, goal, t, faulty_now, others, run, op_id
            )
        if not inputs:
            raise SimulationError(f"operation {op_id} received no droplets")
        merged = inputs[0]
        for droplet in inputs[1:]:
            merged = merged.merged_with(
                droplet, op_id, droplet_id=next(run.droplet_ids)
            )
        for droplet in inputs:
            droplet.position = None  # absorbed into the merged product
        merged.position = module.functional_region.center
        merged.produced_by = op_id
        events.append(
            SimEvent(t, "op-start", f"{op.type.value} on {module.footprint}", op_id)
        )
        events.append(SimEvent(state.finish, "op-finish", f"-> {merged}", op_id))
        droplet_of[op_id] = merged
        # Dynamic reconfigurability means another module may reuse
        # these cells before the consumer collects the product; park
        # it on a cell that stays free until then.
        transport_cells += self._park_product(op_id, merged, state, run)
        run.position_log.append((state.finish, op_id, merged.position))
        return transport_cells, None

    # -- the driver ----------------------------------------------------------------------

    def _execute(self, run: _Run) -> tuple[Droplet | None, int]:
        """Realize the fault timeline, then replay the assay on it.
        Returns ``(assay product, transport cells)``.

        Every fault entry is applied in timeline order before any
        operation runs; then each operation runs once, in the total
        order ``(realized start, op id)``. Two loops suffice: a fault
        only moves modules and delays starts, and a dispatch never
        changes the timeline (see DESIGN.md, "Realize-then-replay
        simulation core").
        """
        for fault_time, cell, kind in run.faults:
            if kind == "fail":
                self._apply_fault(fault_time, cell, run)
            else:
                self._apply_clear(fault_time, cell, run)
        states = run.states
        run.spans = [
            (s.op_id, s.start, s.finish, s.module.footprint)
            for s in states.values()
            if s.module is not None
        ]
        transport = 0
        product = None
        for op_id in sorted(states, key=lambda o: (states[o].start, o)):
            cells, out = self._execute_op(op_id, run)
            transport += cells
            if out is not None:
                product = out
        if product is None:
            product = self._sink_product(run.droplet_of)
        return product, transport

    def _park_product(
        self, op_id: str, droplet: Droplet, state: _OpState, run: _Run
    ) -> int:
        """Transport a finished product to a cell no module will claim before
        its consumer starts. Returns transport cells used (0 if the
        product can stay where it is)."""
        finish = state.finish
        states = run.states
        consumers = set(self.graph.successors(op_id))
        hold_until = max(
            (states[s].start for s in consumers if s in states),
            default=finish,
        )
        faulty = active_fault_cells(run.faults, finish)
        parked = {
            d.position
            for o, d in run.droplet_of.items()
            if o != op_id and d.position is not None
        }

        # The claiming footprints depend only on the window, not the
        # candidate cell — hoist them out of the per-cell predicate (the
        # ring search below probes many cells).
        claiming = self._claiming(
            run, op_id, consumers, finish, max(hold_until, finish + 1e-9)
        )

        def safe(cell: Point) -> bool:
            if cell in parked or cell in faulty:
                return False
            return not any(fp.contains_point(cell) for fp in claiming)

        assert droplet.position is not None
        if safe(droplet.position):
            return 0
        # When replaying a routing plan, prefer the cell the plan's
        # next transport expects as its source — keeping the simulator's
        # parking aligned with the plan model is what lets those
        # transports replay instead of falling back to the BFS kernel.
        goal = self._plan_parking_cell(op_id, consumers, safe)
        if goal is None:
            goal = self._park_goal(
                (droplet.position, frozenset(parked), tuple(faulty), tuple(claiming))
            )
        if goal is None:
            raise SimulationError(
                f"no safe parking cell for {op_id}'s product at t={finish:g}"
            )
        # Evacuate during the handover instant: obstacles are the modules
        # still running just before `finish`, not the ones taking over.
        return self._transport(
            droplet,
            goal,
            finish,
            faulty,
            sorted(parked),
            run,
            op_id,
            obstacle_time=finish - 1e-9,
        )

    def _claiming(
        self, run: _Run, op_id: str, consumers: set, finish: float, window_end: float
    ) -> list[Rect]:
        """Footprints, in states order, of the modules running at some
        point of ``(finish, window_end)``: the cells *op_id*'s product
        must not park on. A sole consumer's site is a fine waiting spot
        — the droplet is routed into that module at its start. With
        fan-out, shares for the *other* consumers would be trapped
        inside, so a neutral cell is required."""
        skip = {op_id, *consumers} if len(consumers) == 1 else {op_id}
        return [
            fp
            for op, start, stop, fp in run.spans
            if start < window_end and stop > finish and op not in skip
        ]

    def _active_footprints(self, run: _Run, t: float, op_id: str) -> list[Rect]:
        """Footprints, in states order, of the modules running at
        instant *t* (realized intervals), other than *op_id*'s."""
        return [
            fp
            for op, start, stop, fp in run.spans
            if start <= t < stop and op != op_id
        ]

    def _plan_parking_cell(self, op_id: str, consumers: set, safe) -> Point | None:
        """The parking spot the routing plan modeled for *op_id*'s
        product — the source of its next planned transport (or of its
        hold net) — if it exists and passes the simulator's own safety
        check. Returns None when no plan is loaded or no modeled spot
        is usable."""
        if self.routing_plan is None:
            return None
        candidates = [self.routing_plan.net_for(op_id, s) for s in sorted(consumers)]
        candidates.append(self.routing_plan.net_for(op_id, None))  # hold net
        for net in candidates:
            if net is not None and safe(net.net.source):
                return net.net.source
        return None

    def _park_goal(self, key: tuple) -> Point | None:
        """The nearest safe parking cell for the search keyed by
        ``(start, parked, faulty, claiming)``. The ring search is pure
        in that key, so it is memoized — Monte-Carlo sweeps and
        checkpoint replays repeat the same searches run after run."""
        goal = self._park_memo.get(key)
        if goal is None:
            goal = _nearest_safe_cell(self.chip.width, self.chip.height, *key)
            if goal is not None:
                if len(self._park_memo) >= 65536:
                    self._park_memo.clear()
                self._park_memo[key] = goal
        return goal

    # -- helpers ------------------------------------------------------------------------------

    def _input_droplets(self, op_id: str, run: _Run) -> list[Droplet]:
        """Collect (and, on fan-out, split) the producers' droplets.

        A product consumed by k operations is split into k equal shares;
        the share leaves the parking cell when its consumer collects it,
        and the parking cell frees up once the last share is gone.
        """
        out = []
        droplet_of = run.droplet_of
        t = run.states[op_id].start
        for pred in self.graph.predecessors(op_id):
            if pred not in droplet_of:
                continue
            source = droplet_of[pred]
            if source.position is None and pred in run.reservoir_queue:
                source.position = self._next_dispense_cell(run)
                run.reservoir_queue.discard(pred)
                run.position_log.append((t, pred, source.position))
            consumers = [s for s in self.graph.successors(pred) if s in self.schedule]
            if len(consumers) <= 1:
                if source.position is not None:
                    # The sole consumer collects the whole product: it
                    # leaves its parking cell at the consumer's start.
                    run.position_log.append((t, pred, None))
                out.append(source)
                continue
            if source.position is None:
                raise SimulationError(
                    f"product of {pred} was exhausted before {op_id} collected its share"
                )
            k = len(consumers)
            share = Droplet(
                position=source.position,
                contents={r: v / k for r, v in source.contents.items()},
                droplet_id=next(run.droplet_ids),
                produced_by=pred,
            )
            taken = run.shares_taken.get(pred, 0) + 1
            run.shares_taken[pred] = taken
            if taken >= k:
                source.position = None  # last share collected; cell is free
                run.position_log.append((t, pred, None))
            out.append(share)
        return out

    def _auto_dispense(self, op, have: int, t: float, run: _Run) -> list[Droplet]:
        """Leaf operations of module-only graphs (e.g. the paper's PCR
        mixing tree) have implicit reagent inputs; dispense them."""
        need = 2 if op.type in (OperationType.MIX, OperationType.DILUTE) else 1
        missing = max(0, need - have)
        reagents = list(op.params.get("reagents", ()))
        out = []
        for k in range(missing):
            cell = self._next_dispense_cell(run)
            name = reagents[k] if k < len(reagents) else f"{op.id}-in{k + 1}"
            droplet = Droplet(
                position=cell,
                contents={name: UNIT_DROPLET_NL},
                droplet_id=next(run.droplet_ids),
            )
            run.events.append(SimEvent(t, "dispense", f"{name} at {cell}", op.id))
            out.append(droplet)
        return out

    def _check_module_health(
        self, module: PlacedModule, faulty_now: list[Point], op_id: str
    ) -> None:
        for cell in faulty_now:
            if module.footprint.contains_point(cell):
                raise SimulationError(
                    f"operation {op_id} is placed over faulty cell {cell}; "
                    "reconfiguration should have moved it"
                )

    def _transport(
        self,
        droplet: Droplet,
        goal: Point,
        t: float,
        faulty_now: list[Point],
        other_droplets: list[Point],
        run: _Run,
        op_id: str,
        obstacle_time: float | None = None,
    ) -> int:
        if droplet.position is None:
            raise SimulationError(f"droplet {droplet.droplet_id} is not on the array")
        if droplet.position == goal:
            return 0
        events = run.events
        planned = self._planned_route(droplet, goal, faulty_now, other_droplets, op_id)
        if planned is not None:
            seconds = self.ew.transport_time_s(planned.moves, DRIVE_VOLTAGE)
            events.append(
                SimEvent(
                    t,
                    "transport",
                    f"droplet {droplet.droplet_id}: {droplet.position} -> {goal} "
                    f"({planned.moves} cells, {seconds:.3f} s, planned route, "
                    f"{planned.waits} waits)",
                    op_id,
                )
            )
            droplet.position = goal
            run.planned_transports += 1
            return planned.moves
        # Obstacles: every module operating while this transport happens,
        # except the destination module itself. *obstacle_time* lets an
        # evacuation route use the configuration just before a module
        # handover (dynamic reconfigurability reuses cells back-to-back).
        # The intervals are the *realized* ones: a fault-induced restart
        # shifts downstream ops, and a module whose nominal window
        # covers t may not actually be running.
        query_t = t if obstacle_time is None else obstacle_time
        active = self._active_footprints(run, query_t, op_id)
        router = self.router
        try:
            route = router.route(
                droplet.position,
                goal,
                blocked_rects=active,
                blocked_cells=faulty_now,
                other_droplets=other_droplets,
            )
        except RoutingError:
            # Tight arrays: let the controller shuffle parked droplets a
            # half-pitch aside (waive the inflation ring, then the parked
            # droplets themselves). Both degradations are logged.
            try:
                route = router.route(
                    droplet.position,
                    goal,
                    blocked_rects=active,
                    blocked_cells=faulty_now,
                    other_droplets=other_droplets,
                    inflate=False,
                )
                events.append(
                    SimEvent(t, "transport", "fluidic spacing waived (tight array)", op_id)
                )
            except RoutingError:
                try:
                    route = router.route(
                        droplet.position,
                        goal,
                        blocked_rects=active,
                        blocked_cells=faulty_now,
                    )
                    events.append(
                        SimEvent(
                            t,
                            "transport",
                            "parked droplets shuffled aside (tight array)",
                            op_id,
                        )
                    )
                except RoutingError as exc:
                    route = self._route_after_handover(
                        droplet, goal, query_t, faulty_now, run, op_id, exc,
                    )
        seconds = self.ew.transport_time_s(route.length, DRIVE_VOLTAGE)
        events.append(
            SimEvent(
                t,
                "transport",
                f"droplet {droplet.droplet_id}: {route.start} -> {route.end} "
                f"({route.length} cells, {seconds:.3f} s)",
                op_id,
            )
        )
        droplet.position = goal
        return route.length

    def _route_after_handover(
        self,
        droplet: Droplet,
        goal: Point,
        query_t: float,
        faulty_now: list[Point],
        run: _Run,
        op_id: str,
        original: RoutingError,
    ):
        """Last-resort degradation: stall until a module handover.

        Every cheaper fallback found the droplet walled in by module
        footprints active *right now* — but module occupancy is
        transient. A physical controller holds the droplet in place and
        moves when the next operation releases its cells, so retry the
        route against the obstacle snapshot at each successive module
        finish instant. Strictly additive: this path only runs where
        the replay previously failed outright, so no previously-passing
        trace can change. The stall is logged; like the other tight-
        array degradations it does not shift the realized schedule.
        """
        handovers = sorted(
            {
                stop
                for op, start, stop, _ in run.spans
                if start <= query_t < stop and op != op_id
            }
        )
        for release in handovers:
            active = self._active_footprints(run, release, op_id)
            try:
                route = self.router.route(
                    droplet.position,
                    goal,
                    blocked_rects=active,
                    blocked_cells=faulty_now,
                )
            except RoutingError:
                continue
            run.events.append(
                SimEvent(
                    query_t,
                    "transport",
                    f"droplet {droplet.droplet_id} stalled until t={release:g}"
                    " (module handover opened a lane)",
                    op_id,
                )
            )
            return route
        raise original

    def _planned_route(
        self,
        droplet: Droplet,
        goal: Point,
        faulty_now: list[Point],
        other_droplets: list[Point],
        op_id: str,
    ):
        """The precomputed routed net for this transport, if the plan
        has one that still applies.

        The plan routed dependency edge ``produced_by -> op_id`` at
        synthesis time against the *nominal* configuration; it is
        replayed only while that configuration holds — no faults have
        fired (a fault may have relocated modules or reparked products
        the plan knows nothing about), the endpoints (chip cells, like
        the replay's) match the droplet's actual position and goal, and
        the planned trajectory keeps the one-cell fluidic gap
        from the droplets *actually* parked right now (the simulator's
        parking decisions can diverge from the plan's parking model).
        Everything else — dispense/output legs, evacuations, the whole
        post-fault regime — falls back to the bitboard BFS kernel
        (:class:`~repro.sim.fastgrid.PackedDropletRouter`), which sees
        the live obstacle state.
        """
        if self.routing_plan is None or droplet.produced_by is None:
            return None
        if faulty_now and not set(faulty_now) <= self.plan_covers_faults:
            # A fault the plan was not synthesized against fired; every
            # later transport falls back to the live-obstacle router. A
            # recovery plan declares its fault mask via
            # ``plan_covers_faults`` and keeps replaying.
            return None
        net = self.routing_plan.net_for(droplet.produced_by, op_id)
        if net is None:
            return None
        if net.net.source != droplet.position or net.net.goal != goal:
            return None
        if faulty_now:
            # A covered plan avoids its declared fault cells only from
            # the instant it was synthesized against them. Under
            # detection latency a *prefix* transport can replay while a
            # not-yet-detected fault is already live — if the planned
            # trajectory crosses any currently-active fault, yield to
            # the live-obstacle router. (Recovery plans route suffix
            # transports around their fault mask by construction, so
            # for those this check never fires.)
            fault_set = set(faulty_now)
            if any(c in fault_set for c in net.cells):
                return None
        for q in other_droplets:
            if q == goal:
                continue  # goal-adjacent merge is the point
            if any(chebyshev(c, q) <= 1 for c in net.cells):
                return None
        return net
