"""Unconstrained reference schedules: the bounds a list schedule lies in.

With resources unlimited every operation starts at its ASAP time; under
any constraint a feasible schedule of makespan ``M`` starts each
operation no earlier than ASAP and no later than the ALAP schedule
against deadline ``M``; no schedule ends before the critical-path
length. The list-scheduling properties check
:func:`repro.synthesis.scheduler.list_schedule` against both.
"""

from __future__ import annotations

from collections.abc import Mapping

from repro.assay.graph import SequencingGraph
from repro.geometry import Interval
from repro.synthesis.schedule import Schedule
from repro.util.errors import ScheduleError


def critical_path_length(graph: SequencingGraph, durations: Mapping[str, float]) -> float:
    """Longest start-to-finish chain under *durations* — the makespan
    lower bound for any schedule."""
    graph.validate()
    finish: dict[str, float] = {}
    for n in graph.topological_order():
        if n not in durations:
            raise ScheduleError(f"no duration for operation {n!r}")
        ready = max((finish[p] for p in graph.predecessors(n)), default=0.0)
        finish[n] = ready + durations[n]
    return max(finish.values(), default=0.0)


def asap_schedule(graph: SequencingGraph, durations: Mapping[str, float]) -> Schedule:
    """As-soon-as-possible schedule (unconstrained resources)."""
    graph.validate()
    start: dict[str, float] = {}
    for op_id in graph.topological_order():
        ready = max(
            (start[p] + durations[p] for p in graph.predecessors(op_id)), default=0.0
        )
        start[op_id] = ready
    return Schedule(
        {o: Interval(s, s + durations[o]) for o, s in start.items()}
    )


def alap_schedule(
    graph: SequencingGraph,
    durations: Mapping[str, float],
    deadline: float | None = None,
) -> Schedule:
    """As-late-as-possible schedule against *deadline*.

    *deadline* defaults to the critical-path length, in which case
    critical operations coincide with their ASAP times.
    """
    graph.validate()
    cpl = critical_path_length(graph, durations)
    if deadline is None:
        deadline = cpl
    if deadline < cpl:
        raise ScheduleError(
            f"deadline {deadline:g} is below the critical-path length {cpl:g}"
        )
    stop: dict[str, float] = {}
    for op_id in reversed(graph.topological_order()):
        due = min(
            (stop[s] - durations[s] for s in graph.successors(op_id)),
            default=deadline,
        )
        stop[op_id] = due
    return Schedule(
        {o: Interval(t - durations[o], t) for o, t in stop.items()}
    )
