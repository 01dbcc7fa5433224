"""Scaling study: how the flow behaves as assays outgrow PCR.

The paper closes on the expectation that biochip complexity "is
expected to grow steadily"; this experiment quantifies what that does
to the placer. For balanced mixing trees of 4, 8, and 16 leaves (7, 15,
31 mix operations) it records schedule makespan, peak cell demand (the
area lower bound), placed area, area overhead over the lower bound,
FTI, and placement runtime.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.assay.synthetic import build_mix_tree
from repro.fault.fti import compute_fti
from repro.placement.annealer import AnnealingParams
from repro.placement.sa_placer import SimulatedAnnealingPlacer
from repro.synthesis.binder import ResourceBinder
from repro.synthesis.scheduler import schedule_bound
from repro.util.tables import format_table

#: Concurrent-operation cap of the list scheduler for every tree size.
_MAX_CONCURRENT_OPS = 4


@dataclass(frozen=True)
class ScalingRow:
    """One workload size's results."""

    leaves: int
    operations: int
    makespan_s: float
    peak_demand_cells: int
    area_cells: int
    fti: float
    placement_runtime_s: float

    @property
    def area_overhead_pct(self) -> float:
        """Placed area over the concurrency lower bound."""
        if self.peak_demand_cells == 0:
            return 0.0
        return 100.0 * (self.area_cells / self.peak_demand_cells - 1.0)


@dataclass(frozen=True)
class ScalingStudy:
    """The whole sweep."""

    rows: tuple[ScalingRow, ...]

    def table_text(self) -> str:
        """Render the study as a report table."""
        return format_table(
            (
                "leaves", "ops", "makespan (s)", "peak demand",
                "area (cells)", "overhead", "FTI", "runtime (s)",
            ),
            [
                (
                    r.leaves,
                    r.operations,
                    f"{r.makespan_s:g}",
                    r.peak_demand_cells,
                    r.area_cells,
                    f"{r.area_overhead_pct:.0f}%",
                    f"{r.fti:.3f}",
                    f"{r.placement_runtime_s:.1f}",
                )
                for r in self.rows
            ],
            title="Scaling study: balanced mix trees",
        )


def run_scaling_study(
    leaf_counts=(4, 8, 16),
    seed: int = 7,
    params: AnnealingParams | None = None,
) -> ScalingStudy:
    """Synthesize and place a mix tree per entry of *leaf_counts*."""
    params = params if params is not None else AnnealingParams.fast()
    binder = ResourceBinder()
    rows = []
    for leaves in leaf_counts:
        graph = build_mix_tree(leaves)
        binding = binder.bind(graph)
        schedule = schedule_bound(
            graph,
            binding,
            max_concurrent_ops=_MAX_CONCURRENT_OPS,
            cell_capacity=None,
            max_parked=None,
        )
        placer = SimulatedAnnealingPlacer(params=params, seed=seed)
        t0 = time.perf_counter()
        result = placer.place(schedule, binding)
        runtime = time.perf_counter() - t0
        fti = compute_fti(result.placement)
        rows.append(
            ScalingRow(
                leaves=leaves,
                operations=len(graph),
                makespan_s=schedule.makespan,
                peak_demand_cells=schedule.peak_cell_demand(binding.footprints()),
                area_cells=result.area_cells,
                fti=fti.fti,
                placement_runtime_s=runtime,
            )
        )
    return ScalingStudy(rows=tuple(rows))
