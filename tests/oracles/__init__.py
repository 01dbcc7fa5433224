"""Reference engines the production paths are checked against.

Each module keeps the straightforward implementation a fast path in
``repro`` replaced, bit-identical in its observable results, for the
parity properties in ``tests/`` and the speed-up baselines in
``benchmarks/``:

* :mod:`oracles.sim` — the fixed-timestep simulator driver
  (:class:`SteppedSimulator`) beside the discrete-event replay, and the
  per-``Point`` parking search (:func:`reference_nearest_safe_cell`)
  beside the padded-``bytearray`` one;
* :mod:`oracles.droplet_router` — the per-``Point`` A* droplet router
  (:class:`DropletRouter`) beside the bitboard BFS transport kernel;
* :mod:`oracles.timegrid` and :mod:`oracles.routing` — the Point-dict
  occupancy grid, its cross-checking shadow, full-round negotiation and
  the generic search (:class:`ReferenceSynthesizer`) beside the packed
  routing engine, and the packed grid's occupancy queries
  (:func:`oracles.timegrid.reserved_blocked`, :func:`oracles.timegrid.blocked`)
  composed from the checks its search inlines;
* :mod:`oracles.anneal` — per-move delta verification
  (:class:`CheckedCost`), the evaluator's from-scratch invariant check
  (:func:`check_consistency`) and the full-recompute anneal
  (:class:`FullRecomputeAnnealing`, :class:`FullRecomputeMoves`,
  :class:`FullRecomputePlacer`) beside the incremental annealer;
* :mod:`oracles.fti` — the paper's per-cell MER procedure, a
  brute-force scan and summed-area-table counting (:func:`reference_fti`)
  beside the bitboard FTI, and the quartic MER enumeration
  (:func:`brute_force_maximal_empty_rectangles`) beside the staircase
  sweep;
* :mod:`oracles.placement` — the per-origin bottom-left scan
  (:func:`reference_first_feasible_position`) beside the bitboard
  seating, and the per-instant core sizing
  (:func:`reference_default_core_side`) beside the delta sweep;
* :mod:`oracles.probing` — the ``Point``-set free-cell walk planner
  (:func:`reference_free_cell_paths`) beside the flat-index planner, the
  walk-per-vote localizer (:class:`ReferenceLocalizer`) beside the
  single-walk one, and the per-cell occupancy query (:func:`occupied`);
* :mod:`oracles.schedule` — the ASAP/ALAP schedules and the
  critical-path length, the bounds a list schedule lies in;
* :mod:`oracles.assay` — the structural contract of generated assays
  (:func:`oracles.assay.check_invariants`).

Nothing in ``repro`` imports this package; the pytest configuration
puts ``tests/`` on the import path so tests and benchmarks can.
"""

from oracles.anneal import (
    CheckedCost,
    CheckedTwoStagePlacer,
    FullRecomputeAnnealing,
    FullRecomputeMoves,
    FullRecomputePlacer,
    check_consistency,
)
from oracles.droplet_router import DropletRouter
from oracles.fti import (
    brute_force_maximal_empty_rectangles,
    fits_any_rectangle,
    reference_fti,
)
from oracles.placement import (
    reference_default_core_side,
    reference_first_feasible_position,
)
from oracles.probing import ReferenceLocalizer, occupied, reference_free_cell_paths
from oracles.routing import ReferenceRouter, ReferenceSynthesizer
from oracles.sim import SteppedSimulator, reference_nearest_safe_cell, stepped_replays
from oracles.timegrid import CrossCheckTimeGrid, ReferenceTimeGrid

__all__ = [
    "CheckedCost",
    "CheckedTwoStagePlacer",
    "CrossCheckTimeGrid",
    "DropletRouter",
    "FullRecomputeAnnealing",
    "FullRecomputeMoves",
    "FullRecomputePlacer",
    "ReferenceLocalizer",
    "ReferenceRouter",
    "ReferenceSynthesizer",
    "ReferenceTimeGrid",
    "SteppedSimulator",
    "brute_force_maximal_empty_rectangles",
    "check_consistency",
    "fits_any_rectangle",
    "occupied",
    "reference_default_core_side",
    "reference_first_feasible_position",
    "reference_free_cell_paths",
    "reference_fti",
    "reference_nearest_safe_cell",
    "stepped_replays",
]
