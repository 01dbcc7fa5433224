"""Module placement for DMFBs (the paper's core contribution).

* :mod:`repro.placement.model` — the modified 2-D placement data model.
* :mod:`repro.placement.annealer` — the simulated-annealing engine of
  paper Figure 3 (cooling schedule, acceptance rule, stopping via the
  controlling window).
* :mod:`repro.placement.moves` — the four generation functions.
* :mod:`repro.placement.incremental` — the O(time-neighbors)
  delta-cost evaluator behind the annealers' incremental path.
* :mod:`repro.placement.window` — the temperature-controlled
  displacement window.
* :mod:`repro.placement.cost` — area and fault-aware cost metrics.
* :mod:`repro.placement.initial` — the constructive initial placement.
* :mod:`repro.placement.greedy` — the paper's greedy baseline.
* :mod:`repro.placement.sa_placer` — the fault-oblivious SA placer.
* :mod:`repro.placement.two_stage` — the enhanced two-stage placer
  with low-temperature fault-aware refinement (LTSA).
"""

from repro.placement.annealer import AnnealingParams, AnnealingStats, SimulatedAnnealing
from repro.placement.cost import AreaCost, FaultAwareCost
from repro.placement.greedy import GreedyPlacer
from repro.placement.incremental import (
    CrossCheckError,
    IncrementalCostEvaluator,
)
from repro.placement.initial import constructive_initial_placement
from repro.placement.model import PlacedModule, Placement
from repro.placement.moves import MoveGenerator
from repro.placement.sa_placer import PlacementResult, SimulatedAnnealingPlacer
from repro.placement.transport import TransportAwareCost
from repro.placement.two_stage import TwoStagePlacer, TwoStageResult
from repro.placement.window import ControllingWindow

__all__ = [
    "TransportAwareCost",
    "AnnealingParams",
    "AnnealingStats",
    "AreaCost",
    "ControllingWindow",
    "CrossCheckError",
    "FaultAwareCost",
    "GreedyPlacer",
    "IncrementalCostEvaluator",
    "MoveGenerator",
    "PlacedModule",
    "Placement",
    "PlacementResult",
    "SimulatedAnnealing",
    "SimulatedAnnealingPlacer",
    "TwoStagePlacer",
    "TwoStageResult",
    "constructive_initial_placement",
]
