"""MER enumeration scaling — staircase sweep vs quartic brute force.

The reason the paper adopts the staircase method (Section 5.3): MER
enumeration runs inside every FTI query, so its scaling sets the cost
of fault-aware placement. On small arrays the two are comparable; by
24x24 the staircase sweep wins by orders of magnitude. The obstacle
pattern is a fixed-density pseudo-random scatter so both algorithms see
identical inputs.
"""

import random

import pytest
from oracles import brute_force_maximal_empty_rectangles

from repro.fault.mer import find_maximal_empty_rectangles
from repro.grid.occupancy import OccupancyGrid

_ALGORITHMS = {
    "staircase": find_maximal_empty_rectangles,
    "bruteforce": brute_force_maximal_empty_rectangles,
}


def scatter_grid(side: int, density: float = 0.15, seed: int = 5) -> OccupancyGrid:
    rng = random.Random(seed)
    grid = OccupancyGrid(side, side)
    for y in range(1, side + 1):
        for x in range(1, side + 1):
            if rng.random() < density:
                grid.set((x, y))
    return grid


@pytest.mark.parametrize("side", [12, 24])
@pytest.mark.parametrize("algorithm", sorted(_ALGORITHMS))
def test_mer_scaling(benchmark, side, algorithm):
    grid = scatter_grid(side)
    fn = _ALGORITHMS[algorithm]

    result = benchmark(fn, grid)

    # Cross-check correctness on every size we time.
    reference = _ALGORITHMS["bruteforce"](grid)
    assert set(result) == set(reference)
