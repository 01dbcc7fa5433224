"""Placement-time geometry oracles: per-origin seating and per-instant
core sizing.

* :func:`reference_first_feasible_position` — the bottom-left scan that
  builds one candidate module per origin and tests its footprint
  against every concurrent obstacle, beside the bitboard seating of
  :func:`repro.placement.legalize.first_feasible_position`;
* :func:`reference_default_core_side` — the peak concurrent demand
  summed afresh at every start instant, beside the delta sweep of
  :func:`repro.placement.sa_placer.default_core_side`;
* :func:`reference_embed` — a placement shifted onto its chip one
  checked :meth:`~repro.placement.model.Placement.add` per module,
  beside the direct build of :meth:`repro.placement.chip.Chip.embed`.
"""

from __future__ import annotations

import math

from repro.placement.chip import Chip
from repro.placement.model import Placement


def reference_first_feasible_position(
    obstacles, pm, core_width: int, core_height: int, allow_rotation: bool = False
):
    """First bottom-left position where *pm* conflicts with nothing.

    Scans origins row by row from (1, 1), trying the native orientation
    first and, when *allow_rotation*, the transposed one at each origin.
    Only obstacles whose time spans overlap *pm*'s matter.
    """
    relevant = [
        o
        for o in obstacles
        if o.op_id != pm.op_id and o.interval.overlaps(pm.interval)
    ]
    orientations = [pm.rotated]
    if allow_rotation and not pm.spec.is_square:
        orientations.append(not pm.rotated)
    for y in range(1, core_height + 1):
        for x in range(1, core_width + 1):
            for rotated in orientations:
                w, h = pm.spec.dims(rotated)
                if x + w - 1 > core_width or y + h - 1 > core_height:
                    continue
                candidate = pm.moved_to(x, y, rotated=rotated)
                fp = candidate.footprint
                if all(not fp.intersects(o.footprint) for o in relevant):
                    return candidate
    return None


def reference_default_core_side(modules) -> int:
    """At least the largest footprint dimension, and wide enough to hold
    twice the peak concurrent cell demand as a square."""
    modules = list(modules)
    if not modules:
        raise ValueError("cannot size a core area for zero modules")
    max_dim = max(
        max(pm.spec.footprint_width, pm.spec.footprint_height) for pm in modules
    )
    peak = 0
    for t in sorted({pm.start for pm in modules}):
        demand = sum(
            pm.footprint.area for pm in modules if pm.interval.contains_time(t)
        )
        peak = max(peak, demand)
    return max(max_dim, math.ceil(math.sqrt(2.0 * peak)))


def reference_embed(chip: Chip, placement: Placement) -> Placement:
    """:meth:`Chip.embed` as each module's ``moved_to`` into a
    :meth:`Placement.add`, with its core check."""
    out = Placement(chip.width, chip.height, pitch_mm=placement.pitch_mm)
    for pm in placement:
        out.add(pm.moved_to(*chip.cell((pm.x, pm.y))))
    return out
