"""Constructive initial placement (paper Figure 4(a)).

The paper notes the initial configuration has little impact on the SA
outcome, so a "simple constructive approach" suffices: seat modules one
at a time at the first feasible bottom-left position inside the core
area. Modules are seated in start-time order (so each time plane packs
from the corner) with larger footprints first within a plane.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.placement.legalize import first_feasible_position
from repro.placement.model import PlacedModule, Placement
from repro.util.errors import PlacementError


def constructive_initial_placement(
    modules: Iterable[PlacedModule],
    core_width: int,
    core_height: int,
    allow_rotation: bool = True,
) -> Placement:
    """Seat *modules* bottom-left-first inside the core area.

    Raises :class:`PlacementError` when some module cannot be seated —
    the core area is too small for the schedule's concurrency, and the
    caller should enlarge it.
    """
    placement = Placement(core_width, core_height)
    ordered = sorted(
        modules, key=lambda pm: (pm.start, -pm.footprint.area, pm.op_id)
    )
    for pm in ordered:
        seated = first_feasible_position(
            placement.modules(), pm, core_width, core_height, allow_rotation
        )
        if seated is None:
            raise PlacementError(
                f"initial placement failed: {pm.op_id} "
                f"({pm.spec.footprint_width}x{pm.spec.footprint_height}) does not "
                f"fit the {core_width}x{core_height} core alongside earlier modules"
            )
        placement.add(seated)
    return placement
