"""Online fault-recovery engine: the acceptance gate.

Not a paper artifact — the proof obligations of ``repro.recovery``:

1. **Recovery success.** For a mid-assay fault aimed at a pending
   module, the online engine (checkpoint -> warm re-place -> suffix
   re-route -> resume) must recover at least as many bundled assays as
   the *offline fault-aware baseline* — the pre-existing pipeline run
   with the same fault known at time zero (fault-aware routing and
   verification; placement fault-oblivious, exactly as the offline
   flow ships). Knowing the fault before synthesis starts is strictly
   easier, so matching it online is the bar. The same scenario is also
   run **closed-loop** (lossy capacitive sensing, no oracle), which
   must complete whenever the perfect-knowledge engine recovers.
2. **Re-synthesis latency.** On the paper schedule (tree16), suffix
   re-routing — only the epochs released after the fault, step counters
   continued from the kept prefix — must beat a full re-route of the
   whole plan by >= 2x aggregated over mid- and late-assay faults.
3. **Relocate vs replace.** For the same pending-module fault, the
   anneal-free ``relocate`` rung (MER relocation + suffix re-route)
   must be >= 2x faster than the ``replace`` rung on every assay where
   it recovers; both rungs' makespan penalties are recorded side by
   side.

Results are written machine-readably to ``BENCH_recovery.json``; CI
runs this file under ``REPRO_BENCH_FAST=1`` (one timing rep, fast
annealing schedules, relaxed 1.5x latency bars for noisy shared
runners) and uploads the JSON as an artifact.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.assay.catalog import BUNDLED_ASSAYS, build_assay
from repro.fault.models import FAIL, FaultEvent
from repro.placement.annealer import AnnealingParams
from repro.placement.sa_placer import SimulatedAnnealingPlacer
from repro.recovery import ClosedLoopController, OnlineRecoveryEngine
from repro.recovery.engine import pick_fault_cell
from repro.testing import CapacitiveSensor
from repro.routing.synthesis import RoutingSynthesizer
from repro.sim.engine import BiochipSimulator
from repro.synthesis.flow import SynthesisFlow
from repro.util.errors import ReproError, RoutingError
from repro.util.tables import format_table

FAST = os.environ.get("REPRO_BENCH_FAST", "").lower() in ("1", "true", "yes")
ASSAYS = ("pcr", "dilution", "ivd") if FAST else tuple(sorted(BUNDLED_ASSAYS))
REPS = 1 if FAST else 3
LATENCY_BAR = 1.5 if FAST else 2.0
FAULT_FRACTIONS = (0.5, 0.75)
SEED = 7
TARGET_SEED = 3

_nominal: dict[str, object] = {}
_success_rows: list[tuple] = []
_results: dict[str, dict] = {}


def _synthesize(assay: str, faulty_cells=(), params: AnnealingParams | None = None):
    graph, binding = build_assay(assay)
    flow = SynthesisFlow(
        placer=SimulatedAnnealingPlacer(
            params=params or AnnealingParams.fast(), seed=SEED
        ),
        route=True,
    )
    return flow.run(graph, explicit_binding=binding, faulty_cells=faulty_cells)


def _seconds(value: float | None) -> str:
    """A penalty cell: ``-`` for a recovery whose replay never finished."""
    return "-" if value is None else f"{value:g}"


def _nominal_result(assay: str):
    if assay not in _nominal:
        _nominal[assay] = _synthesize(assay)
    return _nominal[assay]


def _offline_baseline_recovers(assay: str, cell) -> bool:
    """The pre-existing offline capability: synthesize with the fault
    known at time zero, then verify by droplet-level replay."""
    try:
        result = _synthesize(assay, faulty_cells=[cell])
    except ReproError:
        return False
    plan = result.routing_plan
    if plan is None or plan.failed_count:
        return False
    try:
        plan.verify()
    except RoutingError:
        return False
    sim = BiochipSimulator(
        result.graph,
        result.schedule,
        result.binding,
        result.placement_result.placement,
        result.chip,
        routing_plan=plan,
        plan_covers_faults=[cell],
    )
    report = sim.run(faults=[(0.0, result.chip.cell(cell))])
    return report.completed


@pytest.mark.parametrize("assay", ASSAYS)
def test_recovery_success_vs_offline_baseline(assay):
    result = _nominal_result(assay)
    engine = OnlineRecoveryEngine(annealing=AnnealingParams.fast())
    fault_time = 0.5 * result.schedule.makespan
    checkpoint = engine.checkpoint_of(result, fault_time)
    cell = pick_fault_cell(result, checkpoint, "pending-module", rng=TARGET_SEED)

    outcome = engine.recover(result, [cell], fault_time, seed=TARGET_SEED)
    offline = _offline_baseline_recovers(assay, cell)
    closed = ClosedLoopController(
        engine=OnlineRecoveryEngine(annealing=AnnealingParams.fast()),
        sensor=CapacitiveSensor(
            false_positive_rate=0.02, false_negative_rate=0.05
        ),
    ).run(
        result,
        (FaultEvent(fault_time, cell, FAIL),),
        seed=TARGET_SEED,
        mode="closed-loop",
    )
    _success_rows.append(
        (
            assay,
            str(cell),
            f"t={fault_time:g}s",
            "yes" if outcome.recovered else f"no ({outcome.reason})",
            "yes" if closed.completed else f"no ({closed.reason})",
            "yes" if offline else "no",
            _seconds(outcome.makespan_penalty_s),
            f"{outcome.recovery_s * 1000:.1f}",
        )
    )
    _results.setdefault("per_assay", {})[assay] = {
        "fault_cell": [cell.x, cell.y],
        "fault_time_s": fault_time,
        "online_recovered": outcome.recovered,
        "closed_loop_completed": closed.completed,
        "closed_loop_rung": closed.final_rung,
        "offline_recovered": offline,
        "makespan_penalty_s": outcome.makespan_penalty_s,
        "recovery_ms": outcome.recovery_s * 1000,
        "replace_ms": outcome.replace_s * 1000,
        "reroute_ms": outcome.reroute_s * 1000,
        "rerouted_nets": outcome.rerouted_nets,
        "reused_epochs": outcome.reused_epochs,
    }


def test_recovery_success_bar(report, bench_json):
    if len(_results.get("per_assay", {})) < len(ASSAYS):
        pytest.skip("needs the per-assay outcomes from the full module run")
    per = _results["per_assay"]
    online = sum(1 for r in per.values() if r["online_recovered"])
    closed = sum(1 for r in per.values() if r["closed_loop_completed"])
    offline = sum(1 for r in per.values() if r["offline_recovered"])
    table = format_table(
        ("assay", "fault", "arrival", "online", "closed loop", "offline",
         "penalty s", "resynth ms"),
        _success_rows,
    )
    report(
        "Online recovery vs offline fault-aware baseline",
        f"{table}\n\nonline {online}/{len(per)}, closed-loop "
        f"{closed}/{len(per)} vs offline {offline}/{len(per)} (fast={FAST})",
    )
    bench_json(
        "recovery_success",
        {
            "fast_mode": FAST,
            "assays": per,
            "online_recovered": online,
            "closed_loop_completed": closed,
            "offline_recovered": offline,
            "scenario_count": len(per),
        },
        default="BENCH_recovery.json",
    )
    assert online >= offline, (
        f"online recovery ({online}/{len(per)}) fell below the offline "
        f"fault-aware baseline ({offline}/{len(per)})"
    )
    assert closed >= online, (
        f"closed-loop completion ({closed}/{len(per)}) fell below the "
        f"oracle-knowledge online engine ({online}/{len(per)})"
    )


def test_suffix_reroute_beats_full_reroute(report, bench_json):
    """Aggregate over mid- and late-assay faults on the paper-scale
    assay: re-routing only the suffix must be >= LATENCY_BAR x faster
    than re-routing the whole plan against the same fault mask."""
    params = AnnealingParams.fast() if FAST else AnnealingParams.paper()
    result = _synthesize("tree16", params=params)
    engine = OnlineRecoveryEngine(
        annealing=AnnealingParams.fast() if FAST else None
    )
    synthesizer = RoutingSynthesizer()
    rows = []
    total_suffix = total_full = 0.0
    fractions: dict[str, dict] = {}
    for fraction in FAULT_FRACTIONS:
        fault_time = fraction * result.schedule.makespan
        checkpoint = engine.checkpoint_of(result, fault_time)
        cell = pick_fault_cell(
            result, checkpoint, "pending-module", rng=TARGET_SEED
        )
        outcome = engine.recover(result, [cell], fault_time, seed=TARGET_SEED)
        assert outcome.recovered, f"tree16 @{fraction:.0%}: {outcome.reason}"
        placement = outcome.placement
        best_suffix = best_full = float("inf")
        for _ in range(REPS):
            t0 = time.perf_counter()
            suffix = synthesizer.synthesize(
                result.graph, result.schedule, placement, result.chip, [cell],
                after_time=fault_time,
            )
            best_suffix = min(best_suffix, time.perf_counter() - t0)
            t0 = time.perf_counter()
            full = synthesizer.synthesize(
                result.graph, result.schedule, placement, result.chip, [cell]
            )
            best_full = min(best_full, time.perf_counter() - t0)
        total_suffix += best_suffix
        total_full += best_full
        rows.append(
            (
                f"{fraction:.0%}",
                len(suffix.epochs),
                len(full.epochs),
                f"{best_suffix * 1000:.1f}",
                f"{best_full * 1000:.1f}",
                f"{best_full / best_suffix:.1f}x",
            )
        )
        fractions[f"{fraction:g}"] = {
            "suffix_epochs": len(suffix.epochs),
            "full_epochs": len(full.epochs),
            "suffix_ms": best_suffix * 1000,
            "full_ms": best_full * 1000,
            "speedup": best_full / best_suffix,
        }
    speedup = total_full / total_suffix
    table = format_table(
        ("fault at", "suffix epochs", "full epochs", "suffix ms", "full ms",
         "speedup"),
        rows,
    )
    report(
        "Suffix re-route vs full re-route (tree16, paper schedule)",
        f"{table}\n\naggregate speedup {speedup:.1f}x "
        f"(bar {LATENCY_BAR}x, fast={FAST})",
    )
    bench_json(
        "suffix_reroute_latency",
        {
            "fast_mode": FAST,
            "assay": "tree16",
            "reps": REPS,
            "fractions": fractions,
            "aggregate_speedup": speedup,
            "speedup_bar": LATENCY_BAR,
        },
        default="BENCH_recovery.json",
    )
    assert speedup >= LATENCY_BAR, (
        f"suffix re-route speedup {speedup:.2f}x below the {LATENCY_BAR}x bar"
    )


def test_relocate_beats_replace(report, bench_json):
    """Same fault as the success gate, each bundled assay: the relocate
    rung must be >= LATENCY_BAR x faster than replace wherever it
    recovers, and it must recover somewhere (else the bar is vacuous)."""
    rows = []
    per: dict[str, dict] = {}
    for assay in ASSAYS:
        result = _nominal_result(assay)
        engine = OnlineRecoveryEngine(
            annealing=AnnealingParams.fast() if FAST else None
        )
        fault_time = 0.5 * result.schedule.makespan
        checkpoint = engine.checkpoint_of(result, fault_time)
        cell = pick_fault_cell(result, checkpoint, "pending-module", rng=TARGET_SEED)
        best: dict[str, tuple[float, object]] = {}
        for _ in range(REPS):
            for rung in ("relocate", "replace"):
                outcome = engine.recover(
                    result, [cell], fault_time, seed=TARGET_SEED, rung=rung
                )
                if rung not in best or outcome.recovery_s < best[rung][0]:
                    best[rung] = (outcome.recovery_s, outcome)
        entry = {"fault_cell": [cell.x, cell.y], "fault_time_s": fault_time}
        for rung, (seconds, outcome) in best.items():
            entry[rung] = {
                "recovered": outcome.recovered,
                "reason": outcome.reason,
                "recovery_ms": seconds * 1000,
                "makespan_penalty_s": outcome.makespan_penalty_s,
            }
        relocate, replace = entry["relocate"], entry["replace"]
        entry["speedup"] = replace["recovery_ms"] / relocate["recovery_ms"]
        per[assay] = entry
        rows.append(
            (
                assay,
                str(cell),
                "yes" if relocate["recovered"] else f"no ({relocate['reason']})",
                f"{relocate['recovery_ms']:.1f}",
                f"{replace['recovery_ms']:.1f}",
                f"{entry['speedup']:.1f}x",
                _seconds(relocate["makespan_penalty_s"]),
                _seconds(replace["makespan_penalty_s"]),
            )
        )
    landed = {a: e for a, e in per.items() if e["relocate"]["recovered"]}
    table = format_table(
        ("assay", "fault", "relocate ok", "relocate ms", "replace ms",
         "speedup", "relocate penalty s", "replace penalty s"),
        rows,
    )
    report(
        "Relocate rung vs replace rung (same fault, pending module)",
        f"{table}\n\nrelocate recovered {len(landed)}/{len(per)}; "
        f"bar {LATENCY_BAR}x where it recovers (fast={FAST})",
    )
    bench_json(
        "relocate_vs_replace",
        {
            "fast_mode": FAST,
            "reps": REPS,
            "assays": per,
            "relocate_recovered": len(landed),
            "speedup_bar": LATENCY_BAR,
        },
        default="BENCH_recovery.json",
    )
    assert landed, "the relocate rung recovered no assay"
    slow = {a: e["speedup"] for a, e in landed.items() if e["speedup"] < LATENCY_BAR}
    assert not slow, f"relocate below the {LATENCY_BAR}x bar vs replace: {slow}"
