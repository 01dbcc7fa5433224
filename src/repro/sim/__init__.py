"""Droplet-level biochip simulator.

The paper's algorithms run against a real electrowetting chip; this
package is the behavioral substitute (see DESIGN.md): a documented
voltage/velocity actuation model and a realize-then-replay engine that
executes a placed, scheduled assay — dispensing droplets, routing them
to module functional regions, running operations, and exercising the
detect -> partially-reconfigure -> resume loop when a fault is injected
mid-assay. Transports the routing plan does not cover search the same
array bitboard the placement layer uses (:mod:`repro.grid.bitboard`),
with module footprints, faulty cells and the fluidic spacing around
parked droplets as obstacles.
"""

from repro.sim.droplet import Droplet
from repro.sim.engine import BiochipSimulator, SimEvent, SimulationReport

__all__ = [
    "BiochipSimulator",
    "Droplet",
    "SimEvent",
    "SimulationReport",
]
