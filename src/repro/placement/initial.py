"""Constructive initial placement (paper Figure 4(a)).

The paper notes the initial configuration has little impact on the SA
outcome, so a "simple constructive approach" suffices: seat modules one
at a time at the first feasible bottom-left position inside the core
area. Modules are seated in start-time order (so each time plane packs
from the corner) with larger footprints first within a plane.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.placement.legalize import seat_bottom_left
from repro.placement.model import PlacedModule, Placement


def constructive_initial_placement(
    modules: Iterable[PlacedModule],
    core_width: int,
    core_height: int,
) -> Placement:
    """Seat *modules* bottom-left-first inside the core area, in either
    orientation.

    Raises :class:`PlacementError` when some module cannot be seated —
    the core area is too small for the schedule's concurrency, and the
    caller should enlarge it.
    """
    ordered = sorted(
        modules, key=lambda pm: (pm.start, -pm.footprint.area, pm.op_id)
    )
    return seat_bottom_left(
        ordered,
        core_width,
        core_height,
        allow_rotation=True,
        failure=lambda pm: (
            f"initial placement failed: {pm.op_id} "
            f"({pm.spec.footprint_width}x{pm.spec.footprint_height}) does not "
            f"fit the {core_width}x{core_height} core alongside earlier modules"
        ),
    )
