"""Incremental delta-cost annealing vs full recompute: the proof.

Not a paper artifact — the acceptance gate for the incremental
placement engine (``repro.placement.incremental``). Two claims:

1. **Throughput.** On the paper's published annealing schedule
   (T0=10000, alpha=0.9, Na=400) over an assay with >= 10 placed
   modules, the incremental path must deliver >= 4x proposals/sec over
   the full-recompute reference (``oracles.FullRecomputePlacer`` in
   ``tests/oracles/``). (Both paths run the identical move stream — the
   generator consumes the same RNG draws either way.)
2. **Quality parity.** Across the bundled assay catalog at fixed
   seeds, the incremental path's median bounding-array area must be
   equal or better per assay — the speedup cannot cost placement
   quality.

A third section records the incremental path alone at the end-to-end
benchmark's design size: proposals/s of the fast preset on
``gen:mix-tree:n=100:seed=250`` (no full-recompute run at that size).

Results are also written machine-readably to ``BENCH_placement.json``
(section names below); CI smoke-runs this file with
``REPRO_BENCH_FAST=1``, which shrinks the schedule and relaxes the
throughput bar to 2x (tiny runs leave the O(n^2) path too little room
to lose), and uploads the JSON as an artifact.
"""

from __future__ import annotations

import os
import statistics

import pytest
from oracles import CheckedCost, FullRecomputePlacer

from repro.assay.catalog import BUNDLED_ASSAYS, build_assay, is_generator_spec
from repro.pipeline.context import SynthesisContext
from repro.pipeline.stages import BindStage, ScheduleStage
from repro.placement.annealer import AnnealingParams
from repro.placement.cost import AreaCost
from repro.placement.greedy import build_placed_modules
from repro.placement.sa_placer import SimulatedAnnealingPlacer
from repro.util.tables import format_table

FAST = os.environ.get("REPRO_BENCH_FAST", "").lower() in ("1", "true", "yes")
SPEEDUP_BAR = 2.0 if FAST else 4.0
THROUGHPUT_ASSAY = "tree16"  # 31 placed modules — well past the >=10 floor
#: The generated design the end-to-end benchmark's synth-n100 workload
#: anneals (scheduled as the CLI schedules ``gen:`` specs).
GENERATED_SPEC = "gen:mix-tree:n=100:seed=250"
PARITY_SEEDS = (7,) if FAST else (2, 7, 11)


def _paper_schedule() -> AnnealingParams:
    """The paper schedule, round-capped so the reference path ends today.

    Proposals/sec is a per-round-invariant rate; capping rounds bounds
    wall-clock without touching the per-proposal work being measured.
    """
    base = AnnealingParams.fast() if FAST else AnnealingParams.paper()
    return AnnealingParams(
        initial_temp=base.initial_temp,
        cooling=base.cooling,
        iterations_per_module=base.iterations_per_module,
        window_gamma=base.window_gamma,
        max_rounds=2,
    )


def _modules_for(assay: str):
    graph, binding = build_assay(assay)
    context = SynthesisContext(graph=graph, explicit_binding=binding)
    BindStage().run(context)
    ScheduleStage(max_parked=2 if is_generator_spec(assay) else None).run(context)
    return build_placed_modules(context.schedule, context.binding)


def _place(modules, seed: int, params: AnnealingParams, cost=None,
           placer_cls=SimulatedAnnealingPlacer):
    """Anneal with *cost* (default: the area cost) on *placer_cls*'s path
    (default: the incremental one)."""
    placer = placer_cls(
        params=params, seed=seed, cost=cost if cost is not None else AreaCost(),
        record_history=False,
    )
    return placer.place_modules(modules)


def test_throughput_paper_schedule(report, bench_json):
    modules = _modules_for(THROUGHPUT_ASSAY)
    assert len(modules) >= 10, "the throughput bar is defined for >= 10 modules"
    params = _paper_schedule()

    full = _place(modules, seed=7, params=params, placer_cls=FullRecomputePlacer)
    inc = _place(modules, seed=7, params=params)
    speedup = inc.proposals_per_s / full.proposals_per_s

    text = format_table(
        ("path", "proposals", "anneal s", "proposals/s", "area cells"),
        [
            ("full-recompute", full.stats.evaluations,
             f"{full.anneal_s:.3f}", f"{full.proposals_per_s:,.0f}",
             full.area_cells),
            ("incremental", inc.stats.evaluations,
             f"{inc.anneal_s:.3f}", f"{inc.proposals_per_s:,.0f}",
             inc.area_cells),
        ],
    )
    schedule = "fast (CI smoke)" if FAST else "paper (T0=10000, Na=400)"
    report(
        f"Incremental placer throughput: {THROUGHPUT_ASSAY} "
        f"({len(modules)} modules), {schedule} schedule — {speedup:.1f}x",
        text,
    )
    bench_json("incremental_throughput", {
        "assay": THROUGHPUT_ASSAY,
        "modules": len(modules),
        "schedule": "fast" if FAST else "paper",
        "full": {
            "proposals": full.stats.evaluations,
            "wall_s": full.runtime_s,
            "anneal_s": full.anneal_s,
            "proposals_per_s": full.proposals_per_s,
            "area_cells": full.area_cells,
        },
        "incremental": {
            "proposals": inc.stats.evaluations,
            "wall_s": inc.runtime_s,
            "anneal_s": inc.anneal_s,
            "proposals_per_s": inc.proposals_per_s,
            "area_cells": inc.area_cells,
        },
        "speedup": speedup,
        "bar": SPEEDUP_BAR,
    })
    assert speedup >= SPEEDUP_BAR, (
        f"incremental path delivered {speedup:.2f}x proposals/sec over the "
        f"full-recompute reference; the bar is {SPEEDUP_BAR}x"
    )


def test_throughput_generated_n100(report, bench_json):
    """The incremental path's rate at the end-to-end benchmark's size."""
    modules = _modules_for(GENERATED_SPEC)
    params = AnnealingParams.fast()
    runs = [_place(modules, seed=7, params=params) for _ in range(3)]
    # Same seed, same trajectory: only the wall clock differs per run.
    assert len({(r.stats.evaluations, r.stats.acceptances) for r in runs}) == 1
    best = max(runs, key=lambda r: r.proposals_per_s)
    report(
        f"Incremental placer throughput: {GENERATED_SPEC} "
        f"({len(modules)} modules), fast schedule, best of {len(runs)}",
        format_table(
            ("proposals", "accepted", "anneal s", "proposals/s", "area cells"),
            [(best.stats.evaluations, best.stats.acceptances,
              f"{best.anneal_s:.3f}", f"{best.proposals_per_s:,.0f}",
              best.area_cells)],
        ),
    )
    bench_json("incremental_throughput_generated", {
        "spec": GENERATED_SPEC,
        "modules": len(modules),
        "schedule": "fast",
        "runs": len(runs),
        "proposals": best.stats.evaluations,
        "accepted": best.stats.acceptances,
        "anneal_s": [r.anneal_s for r in runs],
        "proposals_per_s": best.proposals_per_s,
        "area_cells": best.area_cells,
    })


def test_area_parity_across_catalog(report, bench_json):
    params = AnnealingParams.fast()
    rows = []
    payload = {}
    regressions = []
    for assay in sorted(BUNDLED_ASSAYS):
        modules = _modules_for(assay)
        full_areas = [
            _place(
                modules, seed=s, params=params, placer_cls=FullRecomputePlacer
            ).area_cells
            for s in PARITY_SEEDS
        ]
        inc_areas = [
            _place(modules, seed=s, params=params).area_cells
            for s in PARITY_SEEDS
        ]
        med_full = statistics.median(full_areas)
        med_inc = statistics.median(inc_areas)
        rows.append((assay, len(modules), list(PARITY_SEEDS),
                     f"{med_full:g}", f"{med_inc:g}"))
        payload[assay] = {
            "modules": len(modules),
            "seeds": list(PARITY_SEEDS),
            "full_areas": full_areas,
            "incremental_areas": inc_areas,
            "median_full": med_full,
            "median_incremental": med_inc,
        }
        if med_inc > med_full:
            regressions.append((assay, med_full, med_inc))

    report(
        "Incremental placer area parity (median cells at fixed seeds)",
        format_table(
            ("assay", "modules", "seeds", "median full", "median incremental"),
            rows,
        ),
    )
    bench_json("incremental_area_parity", payload)
    assert not regressions, (
        "incremental path regressed median area on: "
        + ", ".join(f"{a} ({f:g} -> {i:g})" for a, f, i in regressions)
    )


@pytest.mark.skipif(FAST, reason="cross-check timing is covered by tier-1 tests")
def test_cross_check_overhead_is_reported(report):
    """Cross-check mode is a verification tool; report what it costs."""
    modules = _modules_for("pcr")
    params = AnnealingParams.fast()
    plain = _place(modules, seed=7, params=params)
    checked = _place(modules, seed=7, params=params, cost=CheckedCost(AreaCost()))
    assert checked.area_cells == plain.area_cells
    report(
        "Cross-check mode overhead (pcr, fast schedule)",
        f"plain incremental: {plain.proposals_per_s:,.0f} proposals/s\n"
        f"with per-move verification: {checked.proposals_per_s:,.0f} "
        f"proposals/s ({plain.proposals_per_s / checked.proposals_per_s:.1f}x "
        f"slower — verification only)",
    )
