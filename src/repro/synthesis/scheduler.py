"""Resource-constrained list scheduling.

The paper assumes a schedule is given (its Figure 6). We regenerate one
with classic list scheduling under *resource constraints*, because the
unconstrained ASAP schedule for PCR demands 72 concurrent cells — more
than the paper's own 63-cell placement — so the paper's scheduler
necessarily staggered the leaf mixes. Two constraint styles are
supported and can be combined:

* ``max_concurrent_ops`` — at most this many modules active at once
  (resource-count constraint, like limiting functional units);
* ``cell_capacity`` — total footprint cells of active modules may not
  exceed this (area budget; requires footprint areas from the binding).
* ``max_parked`` — at most this many finished-but-unconsumed product
  droplets waiting on the array at once (storage-pressure constraint).
  Without it, longest-path priority front-loads independent producers
  far ahead of their consumers, and the parked products become routing
  obstacles that wall off transport corridors on wide workloads
  (multiplexed panels, dilution ladders, random mixing trees). When
  the bound is reached, starts are restricted to direct consumers of
  parked droplets and to *drain chains* — transitive producers of the
  partner inputs those droplets wait for — so the live-droplet count
  is actively driven back down instead of merely not fed (the
  Sethi-Ullman live-range discipline, approximated on a DAG).
  Consumers always remain eligible because starting one consumes at
  least as many parked droplets as it will later park, so the bound
  cannot deadlock the schedule.

Priority is longest-remaining-path first, the standard list-scheduling
heuristic that protects the critical path.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Mapping

from repro.assay.graph import SequencingGraph
from repro.geometry import Interval
from repro.synthesis.binder import Binding
from repro.synthesis.schedule import Schedule
from repro.util.errors import ScheduleError


def _check_durations(graph: SequencingGraph, durations: Mapping[str, float]) -> None:
    for op in graph:
        if op.id not in durations:
            raise ScheduleError(f"no duration for operation {op.id!r}")
        if durations[op.id] <= 0:
            raise ScheduleError(
                f"duration for {op.id!r} must be positive, got {durations[op.id]}"
            )


def remaining_path_lengths(
    graph: SequencingGraph, durations: Mapping[str, float]
) -> dict[str, float]:
    """Longest duration-weighted path from each node to any sink,
    including the node's own duration (the list-scheduling priority)."""
    out: dict[str, float] = {}
    for op_id in reversed(graph.topological_order()):
        tail = max((out[s] for s in graph.successors(op_id)), default=0.0)
        out[op_id] = durations[op_id] + tail
    return out


def list_schedule(
    graph: SequencingGraph,
    durations: Mapping[str, float],
    max_concurrent_ops: int | None = None,
    cell_capacity: int | None = None,
    footprints: Mapping[str, int] | None = None,
    max_parked: int | None = None,
) -> Schedule:
    """Priority list scheduling under concurrency / cell-capacity limits.

    Event-driven: at each instant where something finishes (or t=0),
    start as many ready operations as the constraints allow, in
    longest-remaining-path order. Operations not present in
    *footprints* (e.g. dispense) consume zero cell capacity.

    *max_parked*, when set, bounds the number of finished products
    whose consumer has not yet started: once the bound is hit, only
    direct consumers of parked droplets and their drain chains (ops
    transitively feeding a parked droplet's missing partner input) may
    start, until the backlog drains. Consumer operations are never
    deferred by this bound, so it cannot stall an otherwise feasible
    schedule.

    Raises ``ScheduleError`` if any single operation alone exceeds the
    constraints (it could never start).
    """
    graph.validate()
    _check_durations(graph, durations)
    if max_concurrent_ops is not None and max_concurrent_ops < 1:
        raise ScheduleError(f"max_concurrent_ops must be >= 1, got {max_concurrent_ops}")
    if max_parked is not None and max_parked < 1:
        raise ScheduleError(f"max_parked must be >= 1, got {max_parked}")
    if cell_capacity is not None and footprints is None:
        raise ScheduleError("cell_capacity requires footprint areas (pass footprints=)")
    footprints = dict(footprints or {})
    if cell_capacity is not None:
        for op_id, area in footprints.items():
            if op_id in graph and area > cell_capacity:
                raise ScheduleError(
                    f"operation {op_id!r} needs {area} cells alone, "
                    f"exceeding capacity {cell_capacity}"
                )

    priority = remaining_path_lengths(graph, durations)
    preds = {op.id: tuple(graph.predecessors(op.id)) for op in graph}
    succs = {op.id: tuple(graph.successors(op.id)) for op in graph}
    #: Per op: the number of its producers that have not yet finished.
    #: An op becomes ready when its count reaches zero.
    unfinished = {op_id: len(p) for op_id, p in preds.items()}
    ready = sorted(
        (op_id for op_id, d in unfinished.items() if d == 0),
        key=lambda o: (-priority[o], o),
    )
    running: list[tuple[float, str]] = []  # (stop time, op id)
    intervals: dict[str, Interval] = {}
    #: Product droplets sitting on the array: one per edge whose
    #: producer has finished but whose consumer has not started.
    parked = 0
    #: Per-consumer view of the same droplets: op id -> number of its
    #: input droplets currently parked (waiting for it to start).
    parked_into: dict[str, int] = {}
    t = 0.0
    scheduled = 0
    total = len(graph)

    # Each loop iteration either starts >= 1 op or advances time to the
    # next completion, so the loop terminates after at most
    # total starts + total completions iterations.
    for _ in itertools.count():
        if scheduled == total and not running:
            break
        # Retire finished operations; their products park on the array
        # until each consumer starts.
        for ts, op_id in running:
            if ts <= t:
                for s in succs[op_id]:
                    if s not in intervals:
                        parked += 1
                        parked_into[s] = parked_into.get(s, 0) + 1
        running = [(ts, o) for ts, o in running if ts > t]
        active_ops = len(running)
        active_cells = sum(footprints.get(o, 0) for _, o in running)

        started_any = False
        #: Ops on a drain chain: transitive producers of the missing
        #: inputs of consumers that already have a parked droplet
        #: waiting. Under storage pressure only these (and direct
        #: consumers) may start — longest-path priority would instead
        #: interleave every subtree and let live products pile up far
        #: beyond the bound (the Sethi-Ullman live-range effect on
        #: random mixing trees).
        needed: set[str] = set()
        if max_parked is not None and parked >= max_parked:
            frontier = [
                p
                for consumer, cnt in parked_into.items()
                if cnt and consumer not in intervals
                for p in preds[consumer]
                if p not in intervals
            ]
            needed.update(frontier)
            while frontier:
                o = frontier.pop()
                for p in preds[o]:
                    if p not in intervals and p not in needed:
                        needed.add(p)
                        frontier.append(p)

            # Rank 0: ops that consume parked droplets directly (an
            # OUTPUT removes one for good; a MIX removes two and will
            # park one), most-draining first. Rank 1: drain-chain ops —
            # work toward the partner input a parked droplet is waiting
            # for. Rank 2: everything else (longest path, as usual).
            def _pressure_rank(o: str) -> int:
                if preds[o]:
                    return 0
                if o in needed:
                    return 1
                return 2

            ready.sort(
                key=lambda o: (
                    _pressure_rank(o),
                    len(succs[o]) - len(preds[o]),
                    -priority[o],
                    o,
                )
            )
        # Two passes at most: the parked bound defers only source
        # operations, so if it blocked everything while nothing runs
        # (every parked product's consumer transitively waits on a
        # deferred source), relaxing it is the only way to progress.
        for relax_parked in (False, True):
            still_waiting: list[str] = []
            for op_id in ready:
                fits_count = (
                    max_concurrent_ops is None or active_ops < max_concurrent_ops
                )
                fits_cells = (
                    cell_capacity is None
                    or active_cells + footprints.get(op_id, 0) <= cell_capacity
                )
                fits_parked = (
                    max_parked is None
                    or relax_parked
                    or parked < max_parked
                    or bool(preds[op_id])
                    or op_id in needed
                )
                if fits_count and fits_cells and fits_parked:
                    dur = durations[op_id]
                    intervals[op_id] = Interval(t, t + dur)
                    running.append((t + dur, op_id))
                    active_ops += 1
                    active_cells += footprints.get(op_id, 0)
                    parked -= parked_into.pop(op_id, 0)
                    scheduled += 1
                    started_any = True
                else:
                    still_waiting.append(op_id)
            ready = still_waiting
            if started_any or running or not ready:
                break

        if scheduled == total and not running:
            break
        if not running:
            if not started_any:
                raise ScheduleError(
                    "scheduler stalled: constraints admit no ready operation"
                )
            continue
        # Advance to the earliest completion. The ops finishing by then
        # are the running ones stopping by then (earlier finishers were
        # retired and counted at earlier events); each releases the
        # consumers it was the last unfinished producer of. The sort by
        # the total key makes the order of release irrelevant.
        t = min(ts for ts, _ in running)
        for ts, op_id in running:
            if ts <= t:
                for s in succs[op_id]:
                    unfinished[s] -= 1
                    if not unfinished[s]:
                        ready.append(s)
        ready.sort(key=lambda o: (-priority[o], o))

    sched = Schedule(intervals)
    sched.validate_precedence(graph)
    return sched


def schedule_bound(
    graph: SequencingGraph,
    binding: Binding,
    *,
    max_concurrent_ops: int | None,
    cell_capacity: int | None,
    max_parked: int | None,
) -> Schedule:
    """:func:`list_schedule` of *graph* under *binding*'s durations and
    footprint areas, its endpoints snapped by :func:`integerized`."""
    return integerized(
        list_schedule(
            graph,
            binding.durations(),
            max_concurrent_ops=max_concurrent_ops,
            cell_capacity=cell_capacity,
            footprints=binding.footprints(),
            max_parked=max_parked,
        )
    )


def integerized(schedule: Schedule) -> Schedule:
    """Snap all interval endpoints to integers if they are whole numbers.

    The PCR case study uses integral second durations; exact integer
    endpoints make time-plane bookkeeping (and golden-value tests)
    robust against float noise.
    """
    out = {}
    for op_id, iv in schedule.items():
        s = (
            round(iv.start)
            if math.isclose(iv.start, round(iv.start), abs_tol=1e-9)
            else iv.start
        )
        e = (
            round(iv.stop)
            if math.isclose(iv.stop, round(iv.stop), abs_tol=1e-9)
            else iv.stop
        )
        out[op_id] = Interval(s, e)
    return Schedule(out)
