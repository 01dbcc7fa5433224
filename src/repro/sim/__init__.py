"""Droplet-level biochip simulator.

The paper's algorithms run against a real electrowetting chip; this
package is the behavioral substitute (see DESIGN.md): a documented
voltage/velocity actuation model, a constraint-aware droplet router,
and a discrete-event engine that executes a placed, scheduled assay —
dispensing droplets, routing them to module functional regions, running
operations, and exercising the detect -> partially-reconfigure -> resume
loop when a fault is injected mid-assay.
"""

from repro.sim.droplet import Droplet
from repro.sim.electrowetting import ElectrowettingModel
from repro.sim.engine import BiochipSimulator, SimEvent, SimulationReport
from repro.sim.eventengine import DiscreteEventEngine
from repro.sim.fastgrid import FastRoute, PackedDropletRouter

__all__ = [
    "BiochipSimulator",
    "DiscreteEventEngine",
    "Droplet",
    "ElectrowettingModel",
    "FastRoute",
    "PackedDropletRouter",
    "SimEvent",
    "SimulationReport",
]
