"""MER enumeration scaling — staircase sweep vs quartic brute force.

The reason the paper adopts the staircase method (Section 5.3): its
relocation test enumerates the maximal empty rectangles of the array
once per faulty cell, so the enumeration's scaling would set the cost
of fault-aware placement. The package itself no longer enumerates
MERs: the FTI and relocation erode one bitboard instead, and the sweep
is the test oracle both are held to (``tests/oracles/mer.py``). This
benchmark keeps the paper's argument measurable: on small arrays the
two enumerations are comparable; by 24x24 the staircase sweep wins by
orders of magnitude. The obstacle pattern is a fixed-density
pseudo-random scatter so both algorithms see identical inputs.
"""

import random

import numpy as np
import pytest
from oracles import brute_force_maximal_empty_rectangles, find_maximal_empty_rectangles

_ALGORITHMS = {
    "staircase": find_maximal_empty_rectangles,
    "bruteforce": brute_force_maximal_empty_rectangles,
}


def scatter_grid(side: int, density: float = 0.15, seed: int = 5) -> np.ndarray:
    rng = random.Random(seed)
    grid = np.zeros((side, side), dtype=np.uint8)
    for y in range(side):
        for x in range(side):
            if rng.random() < density:
                grid[y, x] = 1
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
