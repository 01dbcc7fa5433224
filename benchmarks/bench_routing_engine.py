"""Packed routing engine vs the reference path: the proof.

Not a paper artifact — the acceptance gate for the packed-integer
routing core (``repro.routing.timegrid`` + incremental negotiation).
Two claims, measured on the bundled assays under their paper-derived
schedules with a 10% fault grid (10% of the non-module cells of the
padded routing area marked defective at a fixed seed):

1. **Throughput.** Routing synthesis on the packed engine must deliver
   >= 4x routed-nets/sec over the reference path (the original
   Point-dict grid, generic A*, and full-round negotiation, kept as
   ``oracles.ReferenceSynthesizer`` in ``tests/oracles/``), aggregated
   over the five bundled assays.
2. **Plan identity.** At fixed seeds the packed engine must produce
   *bit-identical* routing plans — every epoch, every trajectory, every
   step — with and without fault injection, on all five assays.

Results are also written machine-readably to ``BENCH_routing.json``
(section ``routing_engine``); CI smoke-runs this file with
``REPRO_BENCH_FAST=1``, which drops the timing repetitions to one and
relaxes the throughput bar to 2.5x (shared CI runners are noisy), and
uploads the JSON as an artifact.

Fault scenarios are chosen to route at 100% and pass the independent
verifier on both engines. (The seed table predates the two-sided
merge/split-exemption fix, which removed the latent quirk that used to
constrain seed choice — see DESIGN.md and
tests/test_routing_merge_exemption.py; the pinned seeds remain valid
and keep the timing baseline comparable across PRs.)
"""

from __future__ import annotations

import os
import time

import pytest
from oracles import ReferenceSynthesizer

from repro.assay.catalog import BUNDLED_ASSAYS
from repro.fault.injection import sample_street_faults
from repro.pipeline.context import SynthesisContext
from repro.pipeline.stages import BindStage, PlaceStage, ScheduleStage
from repro.routing import RoutingSynthesizer
from repro.util.tables import format_table

FAST = os.environ.get("REPRO_BENCH_FAST", "").lower() in ("1", "true", "yes")
SPEEDUP_BAR = 2.5 if FAST else 4.0
REPS = 1 if FAST else 3
FAULT_RATE = 0.10
FAULT_SEED = 1
#: Placement seeds with verifier-clean 10%-fault routing on both
#: engines (pinned for timing-baseline stability; see module docstring).
PLACEMENT_SEEDS = {"pcr": 2, "dilution": 2, "ivd": 2, "tree8": 7, "tree16": 2}

_prepared: dict[str, tuple] = {}
_rows: dict[str, tuple] = {}
_totals: dict[str, float] = {"nets": 0, "packed_s": 0.0, "reference_s": 0.0}


def _prepare(assay: str):
    """Bind + schedule + place once per assay; returns the routing
    inputs plus the fixed 10% fault sample (drawn by the shared
    :func:`repro.fault.injection.sample_street_faults` generator)."""
    if assay not in _prepared:
        graph, binding = BUNDLED_ASSAYS[assay]()
        context = SynthesisContext(graph=graph, explicit_binding=binding)
        BindStage().run(context)
        ScheduleStage(max_concurrent_ops=3).run(context)
        PlaceStage(seed=PLACEMENT_SEEDS[assay], compute_fti_report=False).run(context)
        placement, chip = context.placement_result.placement, context.chip
        faults = sample_street_faults(placement, chip, FAULT_SEED, rate=FAULT_RATE)
        _prepared[assay] = (graph, context.schedule, placement, chip, faults)
    return _prepared[assay]


def _timed_synthesis(reference: bool, graph, schedule, placement, chip, faults):
    """Best-of-REPS synthesis wall time plus the (deterministic) plan."""
    synthesizer = (
        ReferenceSynthesizer(reference=True) if reference else RoutingSynthesizer()
    )
    best = float("inf")
    plan = None
    for _ in range(REPS):
        t0 = time.perf_counter()
        plan = synthesizer.synthesize(graph, schedule, placement, chip, faults)
        best = min(best, time.perf_counter() - t0)
    return plan, best


@pytest.mark.parametrize("assay", sorted(BUNDLED_ASSAYS))
def test_routing_engine_identity_and_speed(assay):
    graph, schedule, placement, chip, faults = _prepare(assay)

    # Plan identity must hold with and without fault injection.
    clean_packed, _ = _timed_synthesis(False, graph, schedule, placement, chip, [])
    clean_ref, _ = _timed_synthesis(True, graph, schedule, placement, chip, [])
    assert clean_packed == clean_ref, f"{assay}: fault-free plans diverge"
    clean_packed.verify()

    packed_plan, packed_s = _timed_synthesis(False, graph, schedule, placement, chip, faults)
    ref_plan, ref_s = _timed_synthesis(True, graph, schedule, placement, chip, faults)
    assert packed_plan == ref_plan, f"{assay}: 10%-fault plans diverge"
    packed_plan.verify()
    assert packed_plan.routability == 1.0, f"{assay}: unrouted nets {packed_plan.failed}"

    _totals["nets"] += packed_plan.routed_count
    _totals["packed_s"] += packed_s
    _totals["reference_s"] += ref_s
    _rows[assay] = (
        assay,
        packed_plan.routed_count,
        len(packed_plan.epochs),
        len(faults),
        f"{packed_plan.routed_count / packed_s:,.0f}",
        f"{packed_plan.routed_count / ref_s:,.0f}",
        f"{ref_s / packed_s:.1f}x",
    )


def test_aggregate_speedup_bar(report, bench_json):
    if len(_rows) < len(BUNDLED_ASSAYS):
        pytest.skip("needs the per-assay timings from the full module run")
    packed_rate = _totals["nets"] / _totals["packed_s"]
    ref_rate = _totals["nets"] / _totals["reference_s"]
    speedup = _totals["reference_s"] / _totals["packed_s"]

    table = format_table(
        ("assay", "nets", "epochs", "faults", "packed nets/s", "ref nets/s", "speedup"),
        [_rows[a] for a in sorted(_rows)],
    )
    report(
        "Routing engine: packed vs reference (10% fault grid)",
        f"{table}\n\naggregate: {packed_rate:,.0f} vs {ref_rate:,.0f} nets/s "
        f"= {speedup:.1f}x (bar {SPEEDUP_BAR}x, fast={FAST})",
    )
    bench_json(
        "routing_engine",
        {
            "fast_mode": FAST,
            "fault_rate": FAULT_RATE,
            "reps": REPS,
            "assays": {
                a: {
                    "nets": _rows[a][1],
                    "epochs": _rows[a][2],
                    "faulty_cells": _rows[a][3],
                    "packed_nets_per_s": float(_rows[a][4].replace(",", "")),
                    "reference_nets_per_s": float(_rows[a][5].replace(",", "")),
                    "plans_identical": True,
                }
                for a in sorted(_rows)
            },
            "aggregate_packed_nets_per_s": packed_rate,
            "aggregate_reference_nets_per_s": ref_rate,
            "aggregate_speedup": speedup,
            "speedup_bar": SPEEDUP_BAR,
        },
        default="BENCH_routing.json",
    )
    assert speedup >= SPEEDUP_BAR, (
        f"packed engine speedup {speedup:.2f}x below the {SPEEDUP_BAR}x bar "
        f"({packed_rate:,.0f} vs {ref_rate:,.0f} routed nets/s)"
    )
