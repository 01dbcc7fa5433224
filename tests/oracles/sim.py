"""The fixed-timestep simulator driver: the oracle for the production replay.

:class:`repro.sim.engine.BiochipSimulator` realizes the fault timeline,
then replays every operation in ``(realized start, op id)`` order,
routing transports on the bitboard BFS kernel and searching parking
cells on a padded ``bytearray``, both with memoized queries, listing a
transport's obstacles and a parked product's claiming footprints from
a per-run dispatch index, and reading checkpoints and verdicts from
memoized reports.
:class:`SteppedSimulator` is the sequential driver it replaced, kept
bit-identical and kept as its own independent copy of the two loops
(``_realize_timeline`` and ``_replay_droplets``, both over the
production run record): it routes on the per-``Point`` A* router,
searches every parking cell afresh over ``Point`` cells
(:func:`reference_nearest_safe_cell`), lists the modules a transport
avoids and a parked product must not sit on by scanning every op state
rather than the run's dispatch index, and re-runs the simulation for
every report, so for every checkpoint and verdict, always from t=0: it
ignores a ``resume`` and records nothing to resume from, so it is the
full replay a resumed report must equal. For a fixed fault list
both drivers must produce the identical
:class:`~repro.sim.engine.SimulationReport` — events, timings,
per-droplet position log, failure text. Because both run the same
dispatch order, parity does not check that order;
``tests/test_sim_eventengine.py::TestReplayOrder`` does.

:func:`stepped_replays` swaps the oracle in wherever the library builds
a simulator (the pipeline's verify stage, and the recovery engine,
which builds every simulator of recovery and the closed loop), so a
whole in-process campaign can run on it.

:func:`reference_checkpoint_at` is the eager cut a
:class:`~repro.sim.engine.SimCheckpoint` replaced: every view of the
live state computed and copied out of the report up front, into an
:class:`EagerCheckpoint`, where the production checkpoint keeps only
its instant, faults and report and reads the views on demand.
"""

from __future__ import annotations

import contextlib
from collections import deque
from dataclasses import dataclass
from unittest import mock

from oracles.droplet_router import DropletRouter

from repro.geometry import Point
from repro.sim.engine import (
    BiochipSimulator,
    FaultEntry,
    SimEvent,
    SimulationReport,
    _normalize_faults,
)
from repro.util.errors import SimulationError

#: Modules that construct simulators by name.
_SIMULATOR_USERS = (
    "repro.pipeline.stages",
    "repro.recovery.engine",
)


class SteppedSimulator(BiochipSimulator):
    """:class:`BiochipSimulator` on the original sequential driver."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.router = DropletRouter(self.chip.width, self.chip.height)

    def report(self, faults=(), resume=None):
        # Every checkpoint, rung replay and verdict re-runs in full.
        return self.run(faults=faults)

    def _active_footprints(self, run, t, op_id):
        """Every op state scanned afresh, not the dispatch index."""
        return [
            s.module.footprint
            for s in run.states.values()
            if s.module is not None and s.op_id != op_id and s.start <= t < s.finish
        ]

    def _claiming(self, run, op_id, consumers, finish, window_end):
        """Every op state scanned afresh, not the dispatch index."""
        claiming = []
        for s in run.states.values():
            if s.module is None:
                continue
            if s.op_id == op_id or (len(consumers) == 1 and s.op_id in consumers):
                continue
            if s.start < window_end and s.finish > finish:
                claiming.append(s.module.footprint)
        return claiming

    def _park_goal(self, key: tuple):
        return reference_nearest_safe_cell(self.chip.width, self.chip.height, *key)

    def _execute(self, run):
        self._realize_timeline(run)
        return self._replay_droplets(run)

    def _realize_timeline(self, run):
        """Derive realized op intervals under faults + reconfiguration."""
        for fault_time, cell, kind in run.faults:
            if kind == "fail":
                self._apply_fault(fault_time, cell, run)
            else:
                self._apply_clear(fault_time, cell, run)

    def _replay_droplets(self, run):
        states = run.states
        run.spans = [
            (s.op_id, s.start, s.finish, s.module.footprint)
            for s in states.values()
            if s.module is not None
        ]
        transport_cells = 0
        product = None
        for op_id in sorted(states, key=lambda o: (states[o].start, o)):
            cells, out = self._execute_op(op_id, run)
            transport_cells += cells
            if out is not None:
                product = out
        if product is None:
            product = self._sink_product(run.droplet_of)
        return product, transport_cells


def reference_nearest_safe_cell(width, height, start, parked, faulty, claiming):
    """BFS ring search over ``Point`` cells from *start* for the nearest
    other cell of the ``width x height`` array that no *parked* droplet,
    *faulty* cell or *claiming* footprint covers; None if none does."""
    seen = {start}
    queue = deque([start])
    while queue:
        cell = queue.popleft()
        if (
            cell != start
            and cell not in parked
            and cell not in faulty
            and not any(fp.contains_point(cell) for fp in claiming)
        ):
            return cell
        for nxt in cell.neighbors4():
            if 1 <= nxt.x <= width and 1 <= nxt.y <= height and nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return None


@contextlib.contextmanager
def stepped_replays():
    """Within the block, every simulator the library builds in this
    process is a :class:`SteppedSimulator`."""
    with contextlib.ExitStack() as stack:
        for module in _SIMULATOR_USERS:
            stack.enter_context(
                mock.patch(f"{module}.BiochipSimulator", SteppedSimulator)
            )
        yield


@dataclass(frozen=True)
class EagerCheckpoint:
    """The live state at ``time_s``, every view stored as a field."""

    time_s: float
    faults: tuple[FaultEntry, ...]
    completed: tuple[str, ...]
    in_flight: tuple[str, ...]
    pending: tuple[str, ...]
    realized: dict[str, tuple[float, float]]
    droplet_positions: dict[str, Point]
    events_prefix: tuple[SimEvent, ...]
    nominal_makespan: float

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


def reference_checkpoint_at(
    report: SimulationReport, time_s: float, faults=()
) -> EagerCheckpoint:
    """Cut a completed *report* at *time_s* eagerly, under *faults*, the
    fault list the report was run with; a failed report raises
    :class:`SimulationError`."""
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
    return EagerCheckpoint(
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
