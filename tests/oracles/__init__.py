"""Reference engines the production paths are checked against.

Each module keeps the straightforward implementation a fast path in
``repro`` replaced, bit-identical in its observable results, for the
parity properties in ``tests/`` and the speed-up baselines in
``benchmarks/``:

* :mod:`oracles.sim` — the fixed-timestep simulator driver
  (:class:`SteppedSimulator`) beside the discrete-event replay;
* :mod:`oracles.droplet_router` — the per-``Point`` A* droplet router
  (:class:`DropletRouter`) beside the packed BFS transport kernel;
* :mod:`oracles.timegrid` and :mod:`oracles.routing` — the Point-dict
  occupancy grid, its cross-checking shadow, full-round negotiation and
  the generic search (:class:`ReferenceSynthesizer`) beside the packed
  routing engine;
* :mod:`oracles.anneal` — per-move delta verification
  (:class:`CheckedCost`) and the full-recompute anneal
  (:class:`FullRecomputeAnnealing`, :class:`FullRecomputeMoves`,
  :class:`FullRecomputePlacer`) beside the incremental annealer;
* :mod:`oracles.fti` — the paper's per-cell MER procedure and a
  brute-force scan (:func:`reference_fti`) beside the summed-area-table
  FTI, and the quartic MER enumeration
  (:func:`brute_force_maximal_empty_rectangles`) beside the staircase
  sweep.

Nothing in ``repro`` imports this package; the pytest configuration
puts ``tests/`` on the import path so tests and benchmarks can.
"""

from oracles.anneal import (
    CheckedCost,
    CheckedTwoStagePlacer,
    FullRecomputeAnnealing,
    FullRecomputeMoves,
    FullRecomputePlacer,
)
from oracles.droplet_router import DropletRouter
from oracles.fti import (
    brute_force_maximal_empty_rectangles,
    fits_any_rectangle,
    reference_fti,
)
from oracles.routing import ReferenceRouter, ReferenceSynthesizer
from oracles.sim import SteppedSimulator, stepped_replays
from oracles.timegrid import CrossCheckTimeGrid, ReferenceTimeGrid

__all__ = [
    "CheckedCost",
    "CheckedTwoStagePlacer",
    "CrossCheckTimeGrid",
    "DropletRouter",
    "FullRecomputeAnnealing",
    "FullRecomputeMoves",
    "FullRecomputePlacer",
    "ReferenceRouter",
    "ReferenceSynthesizer",
    "ReferenceTimeGrid",
    "SteppedSimulator",
    "brute_force_maximal_empty_rectangles",
    "fits_any_rectangle",
    "reference_fti",
    "stepped_replays",
]
