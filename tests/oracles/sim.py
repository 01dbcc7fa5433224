"""The fixed-timestep simulator driver: the oracle for the event engine.

:class:`repro.sim.engine.BiochipSimulator` replays an assay on a
discrete-event queue, routes transports on the packed BFS kernel,
reuses its array across runs and checkpoints by truncating a cached
run log. :class:`SteppedSimulator` is the sequential driver it
replaced, kept bit-identical: it realizes the whole fault timeline
first, then replays every operation in ``(realized start, op id)``
order, routes on the per-``Point`` A* router, rebuilds the array for
every run, searches every parking cell afresh and re-runs the
simulation for every checkpoint. For a fixed fault list both drivers
must produce the identical :class:`~repro.sim.engine.SimulationReport`
— events, timings, per-droplet position log, failure text.

:func:`stepped_replays` swaps the oracle in wherever the library builds
a simulator (the pipeline's verify stage, recovery and the closed
loop), so a whole in-process campaign can run on it.
"""

from __future__ import annotations

import contextlib
from unittest import mock

from oracles.droplet_router import DropletRouter

from repro.grid.array import MicrofluidicArray
from repro.sim.engine import BiochipSimulator

#: Modules that construct simulators by name.
_SIMULATOR_USERS = (
    "repro.pipeline.stages",
    "repro.recovery.engine",
    "repro.recovery.closedloop",
)


class SteppedSimulator(BiochipSimulator):
    """:class:`BiochipSimulator` on the original sequential driver."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.router = DropletRouter(self.width, self.height)

    def _reset_array(self) -> None:
        self.array = MicrofluidicArray(self.width, self.height)
        self._install_ports()
        self._marked_faulty = []

    def _cached_log(self, key: tuple):
        return None  # every checkpoint re-runs the simulation

    def _park_goal(self, key: tuple, safe):
        return self._nearest_safe_cell(key[0], safe)

    def _execute(self, faults, events, relocations):
        states = self._realize_timeline(faults, events, relocations)
        product, transport = self._replay_droplets(states, faults, events)
        return states, product, transport

    def _realize_timeline(self, faults, events, relocations):
        """Derive realized op intervals under faults + reconfiguration."""
        states = self._initial_states()
        for fault_time, cell, kind in faults:
            if kind == "fail":
                self._apply_fault(fault_time, cell, states, faults, events, relocations)
            else:
                self._apply_clear(fault_time, cell, events)
        return states

    def _replay_droplets(self, states, faults, events):
        droplet_of = {}
        self._begin_replay(states)
        transport_cells = 0
        product = None
        for op_id in sorted(states, key=lambda o: (states[o].start, o)):
            cells, out = self._execute_op(op_id, states, faults, events, droplet_of)
            transport_cells += cells
            if out is not None:
                product = out
        if product is None:
            product = self._sink_product(droplet_of)
        return product, transport_cells


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
