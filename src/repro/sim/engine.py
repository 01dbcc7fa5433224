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
Ad-hoc transports search the chip's
:class:`~repro.grid.bitboard.Bitboard` breadth first, and a product's
parking cell comes from a ring search over one padded ``bytearray``.

A run is a pure function of ``(simulator, faults)``: everything it
mutates lives in a run record that :meth:`BiochipSimulator.run` creates
and drops, so the simulator is unchanged once built. A completed report
carries its realized intervals and durable droplet-position log, and a
:class:`SimCheckpoint` is a cut of that report at one instant
(:func:`checkpoint_at`): its instant, its faults and the report, from
which it reads the live state when asked.
:meth:`BiochipSimulator.report` memoizes reports by fault list;
:meth:`BiochipSimulator.run` always replays. The test suite keeps the
original fixed-timestep driver as an oracle (``tests/oracles/``) and
asserts bit-identical reports against it.
"""

from __future__ import annotations

import itertools
from collections import deque
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from functools import cached_property

from repro.assay.graph import SequencingGraph
from repro.assay.operations import OperationType
from repro.fault.reconfigure import PartialReconfigurer, Relocation
from repro.geometry import Point, Rect
from repro.grid.bitboard import Bitboard
from repro.placement.chip import Chip
from repro.placement.model import PlacedModule, Placement
from repro.routing.plan import RoutingPlan, chebyshev
from repro.sim.droplet import Droplet
from repro.sim.electrowetting import transport_time_s
from repro.sim.resume import ReplayTrace, mark_boundary, restore, resume_index
from repro.util.errors import (
    ReconfigurationError,
    RoutingError,
    SimulationError,
)

#: Default dispensed droplet volume, nanoliters (order of the reference
#: chips' unit droplet at 1.5 mm pitch / 600 um gap).
UNIT_DROPLET_NL = 900.0


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
    #: ad hoc on the chip's bitboard).
    planned_transports: int = 0
    #: Realized ``op_id -> (start, finish)``, ordered by op id (empty
    #: for a failed run). Not part of :meth:`to_dict`.
    realized: dict[str, tuple[float, float]] = field(default_factory=dict)
    #: Durable droplet-position transitions ``(time, producer op,
    #: cell-or-None)``, in replay order (empty for a failed run). Not
    #: part of :meth:`to_dict`.
    position_log: tuple[tuple[float, str, Point | None], ...] = ()
    #: Operations this run dispatched itself: all of them for a full
    #: replay, the suffix after the resume point for a resumed one (see
    #: :meth:`BiochipSimulator.run`). Not part of :meth:`to_dict` or of
    #: equality: a resumed report equals the full replay's.
    dispatched: int = field(default=0, compare=False)
    #: What a later run needs to resume from this one: kept by
    #: :meth:`BiochipSimulator.report` on the reports it memoizes (None
    #: otherwise, and for a failed run). Internal to the engine.
    trace: ReplayTrace | None = field(default=None, compare=False, repr=False)

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


def _droplet_path_length(
    board: Bitboard, start: Point, goal: Point, footprints, faulty, parked, inflate
) -> int:
    """Moves on the shortest droplet path from *start* to *goal* on
    *board*'s array.

    The path enters no module footprint in *footprints* and no *faulty*
    cell. Each *parked* droplet blocks its cell and, with *inflate*, its
    8-neighbor ring (the static fluidic constraint), clipped to the
    array; the droplet on *goal* is exempt, since merging is the point.
    The endpoints are never blocked. Raises :class:`RoutingError` when
    an endpoint is off the array or no path exists, naming the number
    of blocked in-array cells.
    """
    width, height = board.width, board.height
    if not (
        1 <= start[0] <= width and 1 <= start[1] <= height
        and 1 <= goal[0] <= width and 1 <= goal[1] <= height
    ):
        raise RoutingError(f"route endpoints {start}->{goal} outside the array")
    s = board.stride
    blocked = board.cover(footprints)
    for x, y in faulty:
        if 1 <= x <= width and 1 <= y <= height:
            blocked |= 1 << (y * s + x)
    # A parked droplet's 3x3 ring, its corner cell at bit 0: three row
    # runs OR-ed, since on a 1-wide array (stride 2) the rows overlap
    # and a product would carry. Bits past the array land in padding.
    ring = (0b111 | (0b111 << s) | (0b111 << (2 * s))) if inflate else 1 << (s + 1)
    for x, y in parked:
        if x == goal[0] and y == goal[1]:
            continue
        if 1 <= x <= width and 1 <= y <= height:
            blocked |= ring << ((y - 1) * s + x - 1)
        elif inflate:
            # An off-array droplet still shadows its on-array ring.
            blocked |= board.rect(x - 1, y - 1, x + 1, y + 1)
    source = 1 << (start[1] * s + start[0])
    target = 1 << (goal[1] * s + goal[0])
    inside = board.inside
    blocked &= inside & ~(source | target)
    length = board.steps(source, target, inside ^ blocked)
    if length is None:
        raise RoutingError(
            f"no droplet path {start} -> {goal} on {width}x{height} "
            f"array with {blocked.bit_count()} blocked cells"
        )
    return length


#: Reports :meth:`BiochipSimulator.report` keeps, keyed by normalized
#: fault list: a replay is a pure function of its faults, so an entry
#: never goes stale; the cap only bounds memory.
_REPORT_MEMO_SIZE = 8


@dataclass(frozen=True, eq=False)
class SimCheckpoint:
    """Live mid-assay state captured at one instant of a simulation.

    A cut of a completed report at one instant (:func:`checkpoint_at`,
    reached through :meth:`BiochipSimulator.checkpoint`): the checkpoint
    holds the instant, the faults fired by then and the report, and
    reads everything else off the report on first use. The operation
    classification (completed / in-flight / pending), the realized
    intervals, and the parked-droplet map are the *live state* at
    ``time_s``; each view is a tuple or a fresh dict, so no reader can
    mutate the (memoized, shared) report through it. A run continues
    that history from the checkpoint's report: ``run(faults=[*cp.faults,
    *new], resume=cp.report)`` keeps every dispatch the report made
    before the first new fault that the new faults and design leave
    untouched, dispatches only the rest, and returns the report the
    full replay would return, bit for bit (property-tested in
    ``tests/test_recovery_checkpoint.py``). All cells are in simulator
    coordinates. Two checkpoints are equal when their instants, faults
    and views are.
    """

    #: Instant the checkpoint was taken at (seconds).
    time_s: float
    #: Every fault event that had fired by ``time_s``, normalized to
    #: ``(time, cell, kind)`` (kind ``"fail"`` or ``"clear"``).
    faults: tuple[FaultEntry, ...]
    #: The completed report this checkpoint cuts: the source of every
    #: view and the history a resumed run continues.
    report: SimulationReport = field(repr=False)

    def __post_init__(self) -> None:
        if not self.report.completed:
            raise SimulationError(
                f"cannot checkpoint a failed run: {self.report.failure_reason}"
            )

    @cached_property
    def _classes(self) -> tuple[tuple[str, ...], tuple[str, ...], tuple[str, ...]]:
        """``(completed, in_flight, pending)`` at ``time_s``."""
        completed: list[str] = []
        in_flight: list[str] = []
        pending: list[str] = []
        for op_id, (start, finish) in self.report.realized.items():
            if finish <= self.time_s:
                completed.append(op_id)
            elif start <= self.time_s:
                in_flight.append(op_id)
            else:
                pending.append(op_id)
        return tuple(completed), tuple(in_flight), tuple(pending)

    @property
    def completed(self) -> tuple[str, ...]:
        """Operations whose realized interval ended at or before ``time_s``."""
        return self._classes[0]

    @property
    def in_flight(self) -> tuple[str, ...]:
        """Operations running at ``time_s`` (their modules are frozen:
        droplets are physically inside them)."""
        return self._classes[1]

    @property
    def pending(self) -> tuple[str, ...]:
        """Operations that had not started — the re-synthesizable suffix."""
        return self._classes[2]

    @property
    def realized(self) -> dict[str, tuple[float, float]]:
        """Realized ``op_id -> (start, finish)`` intervals under the
        recorded faults (a fresh dict)."""
        return dict(self.report.realized)

    @cached_property
    def _positions(self) -> dict[str, Point]:
        positions: dict[str, Point] = {}
        for t, op_id, p in self.report.position_log:
            if t <= self.time_s:
                if p is None:
                    positions.pop(op_id, None)
                else:
                    positions[op_id] = p
        return positions

    @property
    def droplet_positions(self) -> dict[str, Point]:
        """Products sitting parked on the array at ``time_s``
        (``producer op -> cell``, a fresh dict); droplets inside
        in-flight modules are represented by the module, not listed
        here."""
        return dict(self._positions)

    @cached_property
    def events_prefix(self) -> tuple[SimEvent, ...]:
        """Event-log prefix (``time <= time_s``), for trace comparison."""
        return tuple(e for e in self.report.events if e.time <= self.time_s)

    @property
    def nominal_makespan(self) -> float:
        """The run's nominal makespan (for penalty accounting downstream)."""
        return self.report.nominal_makespan

    def _views(self) -> tuple:
        return (
            self.time_s,
            self.faults,
            self._classes,
            self.report.realized,
            self._positions,
            self.events_prefix,
            self.nominal_makespan,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SimCheckpoint):
            return NotImplemented
        return self._views() == other._views()

    def to_dict(self) -> dict:
        """JSON-safe summary (the event prefix condensed to a count)."""
        return {
            "time_s": self.time_s,
            "faults": [[t, [c[0], c[1]], kind] for t, c, kind in self.faults],
            "completed": list(self.completed),
            "in_flight": list(self.in_flight),
            "pending": list(self.pending),
            "realized": {o: list(iv) for o, iv in self.report.realized.items()},
            "droplet_positions": {
                o: [p.x, p.y] for o, p in sorted(self.droplet_positions.items())
            },
            "events_prefix": len(self.events_prefix),
            "nominal_makespan_s": self.nominal_makespan,
        }


def checkpoint_at(
    report: SimulationReport, time_s: float, faults: Iterable[tuple] = ()
) -> SimCheckpoint:
    """Cut a completed *report* at *time_s*: the live state at that
    instant under *faults*, the fault list the report was run with.

    Raises :class:`SimulationError` for a failed report (there is no
    consistent state to capture).
    """
    return SimCheckpoint(time_s, tuple(_normalize_faults(faults)), report)


@dataclass
class _Run:
    """Everything one :meth:`BiochipSimulator.run` mutates. The run
    creates it and drops it on return, so the simulator itself never
    changes: a replay is a pure function of its fault list."""

    faults: list[FaultEntry]
    #: The live configuration; a relocation replaces it.
    placement: Placement
    states: dict[str, _OpState]
    #: The report to continue, or None (see :meth:`BiochipSimulator.run`).
    resume: SimulationReport | None = None
    events: list[SimEvent] = field(default_factory=list)
    relocations: list[Relocation] = field(default_factory=list)
    #: Droplets produced so far, by producer op.
    droplet_of: dict[str, Droplet] = field(default_factory=dict)
    #: Reservoir rotation: the next port to dispense from.
    next_port: int = 0
    #: The last droplet id handed out (ids count from 1).
    last_droplet_id: int = 0
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
    #: Operations dispatched by this run.
    dispatched: int = 0
    #: Per dispatch, the counters before it, then those after the last
    #: (see :class:`ReplayTrace`).
    boundaries: list[tuple[int, int, int, int, int, int]] = field(default_factory=list)
    #: Per dispatch, its own droplet's ``produced_by`` just after it.
    produced_by: list[str | None] = field(default_factory=list)
    #: Operations whose transport waited for a module handover.
    stalled: set[str] = field(default_factory=set)
    #: Set by a resumable replay that completed its dispatch loop.
    trace: ReplayTrace | None = None
    #: Whether to keep :attr:`trace` (see :meth:`BiochipSimulator.run`).
    resumable: bool = False

    def new_droplet_id(self) -> int:
        self.last_droplet_id += 1
        return self.last_droplet_id


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
        #: The board every ad-hoc transport searches.
        self.board = Bitboard(chip.width, chip.height)
        #: Reports by normalized fault list, for :meth:`report`.
        self._report_memo: dict[tuple, SimulationReport] = {}
        #: Parking ring-search memo: obstacle signature -> nearest safe
        #: cell.
        self._park_memo: dict[tuple, Point] = {}
        #: Transport search memo: query -> path length, or the failure's
        #: message.
        self._path_memo: dict[tuple, int | str] = {}
        self._dispense_cycle = chip.dispense_ports  # used in rotation

    def _next_dispense_cell(self, run: _Run) -> Point:
        cell = self._dispense_cycle[run.next_port % len(self._dispense_cycle)]
        run.next_port += 1
        return cell

    # -- public API -------------------------------------------------------------------

    def run(
        self,
        faults: Iterable[tuple] = (),
        resume: SimulationReport | None = None,
        resumable: bool = False,
    ) -> SimulationReport:
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

        *resume* continues history: a completed report of the same
        assay on the same chip (another fault list, placement or plan
        allowed). The cut is the first instant at which the two fault
        timelines differ. The timeline is realized in full; then every
        leading dispatch that repeats one of *resume*'s — same
        operation, interval and module, finished before the cut, and its
        consumers' starts, the plan's cover of its faults, the plan nets
        it reads and every module it routes or parks around unchanged —
        is taken from *resume*, and only the rest is dispatched
        (:attr:`SimulationReport.dispatched`). The report equals the
        full replay's. A source that shares nothing (or None) makes it
        a full replay. Only a *resumable* report can be a source: it
        keeps a few ints per dispatch and its droplet table
        (:attr:`SimulationReport.trace`). :meth:`report` asks for that
        on every report it memoizes; a plain run keeps nothing more.
        """
        run = _Run(
            _normalize_faults(faults), self.placement, self._initial_states(),
            resume, resumable=resumable,
        )
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
                dispatched=run.dispatched,
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
            dispatched=run.dispatched,
            trace=run.trace,
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

    def report(
        self,
        faults: Iterable[tuple] = (),
        resume: SimulationReport | None = None,
    ) -> SimulationReport:
        """:meth:`run`'s report under *faults*, memoized by normalized
        fault list: the last :data:`_REPORT_MEMO_SIZE` reports, failed
        ones included, most recently used last. A replay is a pure
        function of its faults, so an entry never goes stale. The
        report is shared with every later caller of the same fault
        list, who must not mutate it. A miss runs with *resume*, whose
        report equals the full replay's, so the key stays the fault
        list, and keeps the report resumable.

        :meth:`run` itself always replays: it is the replay, and what
        times or counts replays (the bench, a tracer) wraps it.
        """
        key = tuple(_normalize_faults(faults))
        memo = self._report_memo
        report = memo.pop(key, None)
        if report is None:
            report = self.run(faults=key, resume=resume, resumable=True)
        memo[key] = report
        if len(memo) > _REPORT_MEMO_SIZE:
            del memo[next(iter(memo))]
        return report

    def memoized(self, faults: Iterable[tuple]) -> SimulationReport | None:
        """:meth:`report`'s memoized report under *faults*, or None;
        never replays and leaves the memo's order alone."""
        return self._report_memo.get(tuple(_normalize_faults(faults)))

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
        # A relocated module keeps off the port cells, as recovery's own
        # passes do.
        ports = [self.chip.cell(p) for p in self.chip.reserved]
        for state in sorted(pending, key=lambda s: s.start):
            try:
                run.placement, plan = self.reconfigurer.apply(
                    run.placement,
                    cell,
                    extra_faults=[
                        f for f in active_fault_cells(run.faults, fault_time)
                        if f != cell
                    ] + ports,
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
                migrate = transport_time_s(reloc.distance)
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
        run.dispatched += 1
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
                droplet_id=run.new_droplet_id(),
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
                droplet, op_id, droplet_id=run.new_droplet_id()
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
        simulation core"). A resumed run takes its leading dispatches
        from its source (:mod:`repro.sim.resume`).
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
        order = sorted(states, key=lambda o: (states[o].start, o))
        realized_events = len(run.events)
        k = resume_index(self, run, order) if run.resume is not None else 0
        product, transport = restore(self, run, order, k) if k else (None, 0)
        for op_id in order[k:]:
            mark_boundary(run, realized_events, transport)
            cells, out = self._execute_op(op_id, run)
            run.produced_by.append(run.droplet_of[op_id].produced_by)
            transport += cells
            if out is not None:
                product = out
        mark_boundary(run, realized_events, transport)
        if product is None:
            product = self._sink_product(run.droplet_of)
        if run.resumable:
            run.trace = ReplayTrace(
                graph=self.graph,
                schedule=self.schedule,
                chip=self.chip,
                routing_plan=self.routing_plan,
                plan_covers_faults=self.plan_covers_faults,
                faults=tuple(run.faults),
                events=run.events[realized_events:],
                droplet_of=run.droplet_of,
                produced_by=tuple(run.produced_by),
                boundaries=tuple(run.boundaries),
                stalled=frozenset(run.stalled),
            )
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

    def _path_length(
        self, start: Point, goal: Point, footprints, faulty, parked, inflate: bool
    ) -> int:
        """:func:`_droplet_path_length` on the chip's board. The search
        is pure in its arguments, so it is memoized — Monte-Carlo sweeps
        and checkpoint replays repeat the same transports, including
        the same degradation-ladder failures, run after run. A failure
        is kept as its message and re-raised verbatim."""
        key = (start, goal, tuple(footprints), tuple(faulty), tuple(parked), inflate)
        outcome = self._path_memo.get(key)
        if outcome is None:
            try:
                outcome = _droplet_path_length(self.board, *key)
            except RoutingError as exc:
                outcome = str(exc)
            if len(self._path_memo) >= 65536:  # bound memory on adversarial grids
                self._path_memo.clear()
            self._path_memo[key] = outcome
        if isinstance(outcome, str):
            raise RoutingError(outcome)
        return outcome

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
                droplet_id=run.new_droplet_id(),
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
                droplet_id=run.new_droplet_id(),
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
            seconds = transport_time_s(planned.moves)
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
        # Tight arrays: let the controller shuffle parked droplets a
        # half-pitch aside (waive the inflation ring, then the parked
        # droplets themselves). Both degradations are logged.
        for others, inflate, degradation in (
            (other_droplets, True, None),
            (other_droplets, False, "fluidic spacing waived (tight array)"),
            ((), True, "parked droplets shuffled aside (tight array)"),
        ):
            try:
                length = self._path_length(
                    droplet.position, goal, active, faulty_now, others, inflate
                )
            except RoutingError as exc:
                error = exc
                continue
            if degradation is not None:
                events.append(SimEvent(t, "transport", degradation, op_id))
            break
        else:
            length = self._route_after_handover(
                droplet, goal, query_t, faulty_now, run, op_id, error,
            )
        seconds = transport_time_s(length)
        events.append(
            SimEvent(
                t,
                "transport",
                f"droplet {droplet.droplet_id}: {droplet.position} -> {goal} "
                f"({length} cells, {seconds:.3f} s)",
                op_id,
            )
        )
        droplet.position = goal
        return length

    def _route_after_handover(
        self,
        droplet: Droplet,
        goal: Point,
        query_t: float,
        faulty_now: list[Point],
        run: _Run,
        op_id: str,
        original: RoutingError,
    ) -> int:
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
                length = self._path_length(
                    droplet.position, goal, active, faulty_now, (), True
                )
            except RoutingError:
                continue
            run.stalled.add(op_id)
            run.events.append(
                SimEvent(
                    query_t,
                    "transport",
                    f"droplet {droplet.droplet_id} stalled until t={release:g}"
                    " (module handover opened a lane)",
                    op_id,
                )
            )
            return length
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
        post-fault regime — falls back to the bitboard search
        (:meth:`_path_length`), which sees the live obstacle state.
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
