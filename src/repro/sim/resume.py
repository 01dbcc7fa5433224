"""Continuing a replay from another's history.

Recovery reconfigures a chip that is already running, so what it
executed before a fault is history (arXiv:0710.4673).
``BiochipSimulator.run(faults, resume=source)`` realizes its fault
timeline in full, then takes from the *source* report every leading
dispatch that would repeat one of the source's (:func:`resume_index`),
rebuilds the run state there (:func:`restore`) and dispatches only the
rest. The report equals the full replay's, bit for bit.

No run state is copied to make this possible. A resumable replay keeps,
beside its report, a :class:`ReplayTrace`: a few ints per dispatch
(:func:`mark_boundary`), the producer tag each dispatch left, its
dispatch events in order and its droplet table. The report's realized
intervals, final placement and position log give the rest.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.assay.operations import OperationType
from repro.sim.droplet import Droplet

if TYPE_CHECKING:  # the engine imports this module
    from repro.assay.graph import SequencingGraph
    from repro.geometry import Point
    from repro.placement.chip import Chip
    from repro.placement.model import PlacedModule
    from repro.routing.plan import RoutingPlan
    from repro.sim.engine import BiochipSimulator, FaultEntry, SimEvent, _Run


@dataclass(frozen=True, eq=False)
class ReplayTrace:
    """What a completed replay keeps, beside its report, so a later run
    can continue it: the inputs a dispatch reads that the report does
    not hold, and per dispatch the counters the run had before it."""

    graph: SequencingGraph
    schedule: object
    chip: Chip
    routing_plan: RoutingPlan | None
    plan_covers_faults: frozenset[Point]
    faults: tuple[FaultEntry, ...]
    #: The events the dispatches appended, in append order.
    events: list[SimEvent]
    #: The final droplet table (a droplet a single-input operation takes
    #: over sits under both producers, as in the run).
    droplet_of: dict[str, Droplet]
    #: Per dispatch, its own droplet's ``produced_by`` just after it.
    produced_by: tuple[str | None, ...]
    #: Per dispatch, the counters before it, and then those after the
    #: last: dispatch events, position-log entries, next port, last
    #: droplet id, planned transports and transport cells.
    boundaries: tuple[tuple[int, int, int, int, int, int], ...]
    #: Operations whose transport waited for a module handover: that
    #: wait reads modules beyond the operation's own window.
    stalled: frozenset[str]


def mark_boundary(run: _Run, realized_events: int, transport: int) -> None:
    """Record the counters a resume at *run*'s next dispatch restores;
    *realized_events* counts the events the fault timeline appended."""
    run.boundaries.append((
        len(run.events) - realized_events, len(run.position_log),
        run.next_port, run.last_droplet_id, run.planned_transports, transport,
    ))


def resume_index(sim: BiochipSimulator, run: _Run, order: list[str]) -> int:
    """How many leading dispatches of *order* (``run``'s dispatch
    order) the report ``run.resume`` made exactly as *run* would.

    Dispatch ``i`` reads its operation's interval and module, the run
    state the earlier dispatches left, its consumers' starts (the
    parking window), the faults active at its start and finish and
    whether the plan covers them, the plan nets of its inputs, its own
    product and its parking spots, and the modules running at its start,
    at its handover instant and in its parking window. When all of those
    match the source's, and both runs dispatched the same operations
    before it, it repeats the source's dispatch. Before the cut, the
    first instant at which the two fault timelines differ or a cell only
    one plan covers fails, both runs see the same faults, covered alike.
    So the first dispatch where anything else differs, or that finishes
    at or after the cut, or that waited for a module handover (that wait
    reads later modules), is where *run* starts dispatching.
    """
    source = run.resume
    trace = source.trace
    if (
        trace is None
        or trace.graph is not sim.graph
        or trace.schedule is not sim.schedule
        or trace.chip != sim.chip
    ):
        return 0
    uncovered = sim.plan_covers_faults ^ trace.plan_covers_faults
    cut = min(
        (
            min(e[0] for e in pair if e is not None)
            for pair in itertools.zip_longest(run.faults, trace.faults)
            if pair[0] != pair[1]
        ),
        default=float("inf"),
    )
    cut = min(
        [cut, *(t for t, cell, kind in run.faults if kind == "fail" and cell in uncovered)]
    )
    states, realized = run.states, source.realized
    placed = {pm.op_id: pm for pm in source.final_placement}
    # The modules whose cells differ between the runs, and the realized
    # intervals, old and new, of every module that moved or shifted.
    moved, changed = set(), []
    for op_id, s in states.items():
        now, was = s.module, placed.get(op_id)
        if now is None and was is None:
            continue
        if not _same_cells(now, was):
            moved.add(op_id)
        elif (s.start, s.finish) == realized[op_id]:
            continue
        if now is not None:
            changed.append((s.start, s.finish))
        if was is not None:
            changed.append(realized[op_id])
    graph = sim.graph
    same_plan = sim.routing_plan is trace.routing_plan
    source_order = sorted(realized, key=lambda o: (realized[o][0], o))
    for k, op_id in enumerate(order):
        if source_order[k] != op_id or op_id in trace.stalled:
            return k
        s = states[op_id]
        start, finish = s.start, s.finish
        if not finish < cut or (start, finish) != realized[op_id] or op_id in moved:
            return k
        successors = graph.successors(op_id)
        consumers = [c for c in successors if c in states]
        if any(states[c].start != realized[c][0] for c in consumers):
            return k
        if not same_plan:
            edges = [
                *((p, op_id) for p in graph.predecessors(op_id)),
                (op_id, op_id),
                *((op_id, c) for c in successors),
                (op_id, None),
            ]
            if _nets(sim.routing_plan, edges) != _nets(trace.routing_plan, edges):
                return k
        handover = finish - 1e-9
        window_end = max(
            max((states[c].start for c in consumers), default=finish),
            finish + 1e-9,
        )
        for a, b in changed:
            if a <= start < b or a <= handover < b or (a < window_end and b > finish):
                return k
    return len(order)


def restore(
    sim: BiochipSimulator, run: _Run, order: list[str], k: int
) -> tuple[Droplet | None, int]:
    """Rebuild, on *run*, the state ``run.resume`` had before its
    dispatch *k*, and take over its first *k* dispatches. Returns
    ``(assay product so far, transport cells so far)``.

    Each droplet the prefix left gets a fresh copy (so *run* cannot
    touch the source's), once however many producers hold it, at its
    last logged position and with the producer tag its last holder's
    dispatch left."""
    source = run.resume
    trace = source.trace
    n_events, n_log, run.next_port, run.last_droplet_id, run.planned_transports, (
        transport
    ) = trace.boundaries[k]
    run.events.extend(trace.events[:n_events])
    log = run.position_log = list(source.position_log[:n_log])
    run.boundaries = list(trace.boundaries[:k])
    run.produced_by = list(trace.produced_by[:k])
    prefix = order[:k]
    held = trace.droplet_of
    position = {id(held[op]): p for _, op, p in log}
    tag = {id(held[op]): by for op, by in zip(prefix, run.produced_by)}
    logged = {op for _, op, _ in log}
    copies: dict[int, Droplet] = {}
    droplet_of = run.droplet_of
    graph, schedule = sim.graph, sim.schedule
    product = None
    for op_id in prefix:
        # The shares this dispatch took, as the engine's input collection
        # counts them: one from each fan-out producer dispatched before it.
        for pred in graph.predecessors(op_id):
            if pred in droplet_of and sum(
                1 for c in graph.successors(pred) if c in schedule
            ) > 1:
                run.shares_taken[pred] = run.shares_taken.get(pred, 0) + 1
        d = held[op_id]
        copy = copies.get(id(d))
        if copy is None:
            copy = copies[id(d)] = Droplet(
                position=position.get(id(d)),
                contents=dict(d.contents),
                droplet_id=d.droplet_id,
                produced_by=tag[id(d)],
            )
        droplet_of[op_id] = copy
        kind = graph.operation(op_id).type
        if kind is OperationType.DISPENSE and op_id not in logged:
            run.reservoir_queue.add(op_id)  # not collected yet
        elif kind is OperationType.OUTPUT:
            product = copy
    return product, transport


def _same_cells(a: PlacedModule | None, b: PlacedModule | None) -> bool:
    """Whether modules *a* and *b* cover the same footprint and
    functional region, the cells a dispatch reads (both follow from the
    spec, the origin and the orientation)."""
    if a is None or b is None:
        return a is b
    return (a.x, a.y, a.rotated) == (b.x, b.y, b.rotated) and a.spec is b.spec


def _nets(plan: RoutingPlan | None, edges: list[tuple]) -> list:
    """The routed nets of *plan* for dependency *edges* (None where it
    has none, or has no plan)."""
    return [None if plan is None else plan.net_for(*edge) for edge in edges]
