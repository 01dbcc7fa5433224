"""Bottom-left scanning and overlap repair.

Shared machinery for the constructive initial placement (paper Figure
4(a)) and the greedy baseline (paper Section 6.1), which both seat
modules one at a time with :func:`seat_bottom_left`, each in its own
order, and for the final legalization safety net of the SA placers:
the annealer *should* drive the overlap penalty to zero, but a
stochastic run has no guarantee, so placers repair any residual
overlap deterministically before reporting.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable

from repro.grid.bitboard import Bitboard
from repro.placement.model import PlacedModule, Placement
from repro.util.errors import PlacementError


def first_feasible_position(
    obstacles: Iterable[PlacedModule],
    pm: PlacedModule,
    core_width: int,
    core_height: int,
    allow_rotation: bool = False,
) -> PlacedModule | None:
    """First bottom-left position where *pm* conflicts with nothing.

    The classic bottom-left packing rule: the lowest row, then the
    leftmost origin from (1, 1), in the native orientation or, when
    *allow_rotation*, the transposed one; at a shared origin the native
    orientation wins. Only obstacles whose time spans overlap *pm*'s
    matter. The free cells are one bitboard, each orientation's feasible
    origins are it eroded to the window, and the answer is the lowest
    set bit. Returns the repositioned module, or ``None`` when no
    in-core position works.
    """
    if core_width < 1 or core_height < 1:
        return None
    board = Bitboard(core_width, core_height)
    blocked = board.cover(
        o.footprint
        for o in obstacles
        if o.op_id != pm.op_id and o.start < pm.stop and pm.start < o.stop
    )
    free = board.inside & ~blocked
    orientations = [pm.rotated]
    if allow_rotation and not pm.spec.is_square:
        orientations.append(not pm.rotated)
    best = None
    for rotated in orientations:
        origins = board.origins(free, *pm.spec.dims(rotated))
        if origins:
            low = (origins & -origins).bit_length() - 1
            if best is None or low < best[0]:
                best = (low, rotated)
    if best is None:
        return None
    x, y = board.cell(best[0])
    return pm.moved_to(x, y, rotated=best[1])


def seat_bottom_left(
    modules: Iterable[PlacedModule],
    core_width: int,
    core_height: int,
    *,
    allow_rotation: bool,
    failure: Callable[[PlacedModule], str],
) -> Placement:
    """Seat *modules*, in the given order, each at its
    :func:`first_feasible_position` among those seated before it.

    Raises :class:`PlacementError` with ``failure(pm)`` as its message
    for the first module that fits nowhere.
    """
    placement = Placement(core_width, core_height)
    for pm in modules:
        seated = first_feasible_position(
            placement.modules(), pm, core_width, core_height, allow_rotation
        )
        if seated is None:
            raise PlacementError(failure(pm))
        placement.add(seated)
    return placement


#: Re-seating sweeps :func:`repair_overlaps` makes before giving up.
_MAX_PASSES = 4


def repair_overlaps(placement: Placement, allow_rotation: bool = True) -> Placement:
    """Legalize *placement* by re-seating conflicting modules bottom-left.

    Repeatedly picks a module involved in a conflict (smallest footprint
    first — cheapest to move) and re-seats it at the first feasible
    bottom-left position. Raises :class:`PlacementError` if the core
    area cannot host a feasible configuration within four sweeps.
    """
    current = placement.copy()
    for _ in range(_MAX_PASSES):
        pairs = current.conflicting_pairs()
        if not pairs:
            return current
        movers: dict[str, PlacedModule] = {}
        for a, b in pairs:
            loser = min((a, b), key=lambda pm: (pm.footprint.area, pm.op_id))
            movers[loser.op_id] = loser
        for pm in sorted(movers.values(), key=lambda m: (m.footprint.area, m.op_id)):
            seated = first_feasible_position(
                current.modules(),
                pm,
                current.core_width,
                current.core_height,
                allow_rotation=allow_rotation,
            )
            if seated is None:
                raise PlacementError(
                    f"cannot legalize: no feasible position for {pm.op_id} in "
                    f"{current.core_width}x{current.core_height} core"
                )
            current.replace(seated)
    if current.conflicting_pairs():
        raise PlacementError(
            f"legalization did not converge within {_MAX_PASSES} passes"
        )
    return current
