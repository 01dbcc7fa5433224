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
    from repro.placement.model import Placement


def sample_street_faults(
    placement: Placement,
    seed: int | random.Random,
    rate: float = 0.10,
) -> list[tuple[int, int]]:
    """Sample *rate* of the padded routing area's **street** cells —
    everything not under a module footprint, the routing plan's
    boundary lanes included — at a fixed seed, in placement
    coordinates.

    This is the fault-grid generator shared by the routing-engine
    benchmark and the merge-exemption regression tests: the pinned
    historical scenarios depend on the exact street enumeration order
    (sorted) and `random.Random(seed).sample`, so the two call sites
    must draw from one implementation.
    """
    from repro.routing.synthesis import RoutingSynthesizer

    margin = RoutingSynthesizer.margin
    covered = {
        (c.x, c.y) for pm in placement for c in pm.footprint.cells()
    }
    streets = sorted(
        (x, y)
        for x in range(1 - margin, placement.core_width + margin + 1)
        for y in range(1 - margin, placement.core_height + margin + 1)
        if (x, y) not in covered
    )
    rng = ensure_rng(seed)
    return rng.sample(streets, max(1, round(rate * len(streets))))
