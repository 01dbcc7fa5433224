"""Seeded street-fault sampling for routing scenarios.

:func:`sample_street_faults` draws a fixed share of the cells a routed
design leaves free for droplet transport. The routing-engine benchmark
and the merge-exemption regression tests use it as their fault grid.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING

from repro.util.rng import ensure_rng

if TYPE_CHECKING:  # placement imports fault's cost hooks; avoid the cycle
    from repro.placement.chip import Chip
    from repro.placement.model import Placement


def sample_street_faults(
    placement: Placement,
    chip: Chip,
    seed: int | random.Random,
    rate: float = 0.10,
) -> list[tuple[int, int]]:
    """Sample *rate* of *chip*'s **street** cells — everything not under
    a module footprint, the margin's lanes included — at a fixed seed,
    in placement coordinates. The pinned scenarios of the routing-engine
    benchmark and the merge-exemption tests depend on the sorted street
    order and `random.Random(seed).sample`, so both draw from here.
    """
    covered = {
        (c.x, c.y) for pm in placement for c in pm.footprint.cells()
    }
    xs, ys = chip.extent
    streets = sorted((x, y) for x in xs for y in ys if (x, y) not in covered)
    rng = ensure_rng(seed)
    return rng.sample(streets, max(1, round(rate * len(streets))))
