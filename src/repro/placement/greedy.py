"""The greedy baseline placer (paper Section 6.1).

"Modules are first sorted in the descending order based on their areas.
In each step, the module with the largest area among the unplaced ones
is selected and placed at an available bottom-left corner of the
array." On the paper's PCR case study this produces an 84-cell array,
which the SA placer then beats by 25%.
"""

from __future__ import annotations

import time
from collections.abc import Iterable, Mapping
from typing import TYPE_CHECKING

from repro.modules.module import ModuleSpec
from repro.placement.legalize import seat_bottom_left
from repro.placement.model import PlacedModule, Placement
from repro.util.errors import PlacementError

if TYPE_CHECKING:  # synthesis.flow imports the placers; avoid the cycle
    from repro.synthesis.schedule import Schedule


def build_placed_modules(
    schedule: Schedule, binding: Mapping[str, ModuleSpec] | object
) -> list[PlacedModule]:
    """Instantiate unplaced modules (at a provisional origin) from a
    schedule and binding.

    *binding* may be a plain mapping of op id -> :class:`ModuleSpec` or a
    :class:`repro.synthesis.binder.Binding`. Operations without a bound
    module (dispense/output) are skipped — they live at boundary ports.
    """
    pairs = list(binding.items())  # works for dicts and Binding alike
    out = []
    for op_id, spec in pairs:
        if op_id not in schedule:
            raise PlacementError(f"bound operation {op_id!r} is not scheduled")
        iv = schedule.interval(op_id)
        out.append(
            PlacedModule(
                op_id=op_id, spec=spec, x=1, y=1, start=iv.start, stop=iv.stop
            )
        )
    return out


#: Side of the square core the greedy baseline seats modules in.
CORE_SIDE = 32


class GreedyPlacer:
    """Largest-first bottom-left placement — the paper's baseline, on a
    ``CORE_SIDE`` x ``CORE_SIDE`` core."""

    def place_modules(self, modules: Iterable[PlacedModule]) -> Placement:
        """Place pre-built modules largest-area-first at bottom-left."""
        ordered = sorted(
            modules, key=lambda pm: (-pm.footprint.area, pm.start, pm.op_id)
        )
        return seat_bottom_left(
            ordered,
            CORE_SIDE,
            CORE_SIDE,
            # The paper's baseline places footprints as bound.
            allow_rotation=False,
            failure=lambda pm: (
                f"greedy placement failed for {pm.op_id} in "
                f"{CORE_SIDE}x{CORE_SIDE} core"
            ),
        )

    def place(self, schedule: Schedule, binding) -> "GreedyResult":
        """Place a scheduled, bound assay; returns placement + metrics."""
        t0 = time.perf_counter()
        placement = self.place_modules(build_placed_modules(schedule, binding))
        placement.validate()
        normalized = placement.normalized()
        return GreedyResult(
            placement=normalized,
            runtime_s=time.perf_counter() - t0,
        )


class GreedyResult:
    """Greedy placement plus the metrics the paper reports."""

    def __init__(self, placement: Placement, runtime_s: float) -> None:
        self.placement = placement
        self.runtime_s = runtime_s

    @property
    def area_cells(self) -> int:
        """Bounding-array cells (paper: 84 for PCR)."""
        return self.placement.area_cells

    @property
    def area_mm2(self) -> float:
        """Bounding-array mm^2 (paper: 189 for PCR at 1.5 mm pitch)."""
        return self.placement.area_mm2

    def __str__(self) -> str:
        w, h = self.placement.array_dims()
        return (
            f"GreedyResult({w}x{h} = {self.area_cells} cells, "
            f"{self.area_mm2:.2f} mm^2)"
        )
