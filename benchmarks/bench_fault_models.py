"""Closed-loop fault tolerance under the five pinned fault models.

Not a paper artifact — the acceptance gate of the closed-loop layer
(:mod:`repro.recovery.closedloop` + :mod:`repro.fault.models`):

1. **Closed loop tracks the oracle.** For every (assay x fault model)
   scenario, detection-driven recovery with a lossy sensor must land
   the assay whenever the perfect-knowledge oracle does, and must not
   need more than **one extra rung** of the graceful-degradation
   ladder to do it.
2. **False alarms are harmless.** A fault-free chip probed by a jumpy
   sensor (false positives only) must always complete: a phantom
   reading is either dismissed by the confirmation re-probe, or — when
   the re-probe also lies — recovered *around* (the plan avoids one
   healthy cell). Neither path may ever end in an abort.
3. **Detection latency is bounded and measured.** Closed-loop
   detections arrive after the true fault (sensing is causal); the
   per-model latency distributions are recorded for the artifact.

Results are written machine-readably to ``BENCH_faultmodel.json``
(detection-latency distributions, closed-loop vs oracle success,
ladder-rung frequencies); CI runs this file under
``REPRO_BENCH_FAST=1`` and uploads the JSON as an artifact.
"""

from __future__ import annotations

import os
import statistics

import pytest

from repro.assay.catalog import BUNDLED_ASSAYS, build_assay
from repro.fault.models import FAULT_MODELS
from repro.placement.annealer import AnnealingParams
from repro.placement.sa_placer import SimulatedAnnealingPlacer
from repro.recovery import (
    RECOVERY_RUNGS,
    ClosedLoopController,
    OnlineRecoveryEngine,
    fault_timeline,
    pick_fault_cell,
)
from repro.synthesis.flow import SynthesisFlow
from repro.testing import CapacitiveSensor
from repro.util.rng import ensure_rng
from repro.util.tables import format_table

FAST = os.environ.get("REPRO_BENCH_FAST", "").lower() in ("1", "true", "yes")
ASSAYS = ("pcr", "dilution") if FAST else tuple(sorted(BUNDLED_ASSAYS))
MODELS = tuple(sorted(FAULT_MODELS))
FAULT_FRACTION = 0.5
SEED = 7
TARGET_SEED = 3
SENSOR_FPR = 0.02
SENSOR_FNR = 0.05
FALSE_ALARM_FPR = 0.2
FALSE_ALARM_SEEDS = (1, 9, 33) if FAST else (1, 9, 33, 57, 101)

#: Rung name -> ladder depth; "abort" sits one past the last real rung
#: so "within one rung" naturally covers oracle-succeeds/closed-aborts.
_RUNG_DEPTH = {rung: i for i, rung in enumerate(RECOVERY_RUNGS)}
_RUNG_DEPTH["abort"] = len(RECOVERY_RUNGS)

_synth_cache: dict[str, object] = {}
_scenarios: list[dict] = []
_scenario_rows: list[tuple] = []
_false_alarm_rows: list[dict] = []


def _routed(assay: str):
    if assay not in _synth_cache:
        graph, binding = build_assay(assay)
        flow = SynthesisFlow(
            placer=SimulatedAnnealingPlacer(
                params=AnnealingParams.fast(), seed=SEED
            ),
            route=True,
        )
        _synth_cache[assay] = flow.run(graph, explicit_binding=binding)
    return _synth_cache[assay]


def _engine() -> OnlineRecoveryEngine:
    return OnlineRecoveryEngine(annealing=AnnealingParams.fast())


def _depth(rung: str | None) -> int | None:
    return None if rung is None else _RUNG_DEPTH[rung]


def _latency_stats(latencies: list[float]) -> dict:
    if not latencies:
        return {"count": 0}
    return {
        "count": len(latencies),
        "min_s": min(latencies),
        "median_s": statistics.median(latencies),
        "mean_s": statistics.fmean(latencies),
        "max_s": max(latencies),
    }


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("assay", ASSAYS)
def test_closed_loop_tracks_oracle(assay, model):
    """Same fault timeline, two observers: the oracle (ground truth at
    arrival) and the closed loop (lossy probes). The closed loop must
    complete whenever the oracle does, within one ladder rung."""
    result = _routed(assay)
    engine = _engine()
    fault_time = FAULT_FRACTION * result.makespan
    checkpoint = engine.checkpoint_of(result, fault_time)
    cell = pick_fault_cell(result, checkpoint, "pending-module", rng=TARGET_SEED)
    events = fault_timeline(
        engine, result, model, fault_time, cell, ensure_rng(SEED)
    )

    oracle = ClosedLoopController(engine=_engine()).run(
        result, events, seed=SEED, mode="oracle"
    )
    closed = ClosedLoopController(
        engine=_engine(),
        sensor=CapacitiveSensor(
            false_positive_rate=SENSOR_FPR, false_negative_rate=SENSOR_FNR
        ),
    ).run(result, events, seed=SEED, mode="closed-loop")

    latencies = list(closed.detection_latencies)
    _scenarios.append(
        {
            "assay": assay,
            "model": model,
            "fault_cell": [cell.x, cell.y],
            "fault_time_s": fault_time,
            "oracle_completed": oracle.completed,
            "closed_completed": closed.completed,
            "oracle_rung": oracle.final_rung,
            "closed_rung": closed.final_rung,
            "detection_latencies_s": latencies,
            "false_alarms": len(closed.false_alarms),
            "watchdog_rounds": closed.watchdog_rounds,
            "makespan_penalty_s": closed.makespan_penalty_s,
        }
    )
    _scenario_rows.append(
        (
            assay,
            model,
            oracle.final_rung or "-",
            closed.final_rung or "-",
            "yes" if closed.completed else f"no ({closed.reason})",
            f"{max(latencies):.3g}" if latencies else "-",
        )
    )

    # Sensing is causal: no detection precedes the fault it observes.
    assert all(lat >= 0 for lat in latencies)
    if oracle.completed:
        assert closed.completed, (
            f"{assay}/{model}: oracle recovered but the closed loop "
            f"did not ({closed.reason})"
        )
        od, cd = _depth(oracle.final_rung), _depth(closed.final_rung)
        if od is not None or cd is not None:
            assert abs((cd or 0) - (od or 0)) <= 1, (
                f"{assay}/{model}: closed-loop rung {closed.final_rung!r} "
                f"is more than one step from oracle {oracle.final_rung!r}"
            )


@pytest.mark.parametrize("seed", FALSE_ALARM_SEEDS)
def test_false_alarms_never_abort_fault_free_runs(seed):
    """A healthy chip with a jumpy sensor: a phantom positive is
    dismissed by the re-probe or recovered around — never an abort."""
    result = _routed(ASSAYS[0])
    controller = ClosedLoopController(
        engine=_engine(),
        sensor=CapacitiveSensor(false_positive_rate=FALSE_ALARM_FPR),
    )
    outcome = controller.run(result, (), seed=seed)
    _false_alarm_rows.append(
        {
            "seed": seed,
            "completed": outcome.completed,
            "aborted": outcome.aborted,
            "dismissed_alarms": len(outcome.false_alarms),
            "phantom_recoveries": len(outcome.recoveries),
            "makespan_penalty_s": outcome.makespan_penalty_s,
        }
    )
    assert outcome.completed and not outcome.aborted, outcome.reason
    assert all(d.dismissed for d in outcome.false_alarms)
    # No real fault existed, so any recovery here chased a phantom;
    # it must still leave the replay complete.
    for recovery in outcome.recoveries:
        assert recovery.recovered


def test_fault_model_report(report, bench_json):
    """Aggregate the grid into the artifact + terminal report."""
    expected = len(ASSAYS) * len(MODELS)
    if len(_scenarios) < expected:
        pytest.skip("needs the scenario outcomes from the full module run")

    oracle_ok = sum(1 for s in _scenarios if s["oracle_completed"])
    closed_ok = sum(1 for s in _scenarios if s["closed_completed"])
    rung_freq: dict[str, int] = {}
    latency_by_model: dict[str, list[float]] = {m: [] for m in MODELS}
    for s in _scenarios:
        if s["closed_rung"] is not None:
            rung_freq[s["closed_rung"]] = rung_freq.get(s["closed_rung"], 0) + 1
        latency_by_model[s["model"]].extend(s["detection_latencies_s"])

    table = format_table(
        ("assay", "model", "oracle rung", "closed rung", "closed ok",
         "worst latency s"),
        _scenario_rows,
    )
    dismissed = sum(r["dismissed_alarms"] for r in _false_alarm_rows)
    phantoms = sum(r["phantom_recoveries"] for r in _false_alarm_rows)
    report(
        "Closed-loop recovery across fault models",
        f"{table}\n\nclosed-loop {closed_ok}/{len(_scenarios)} vs oracle "
        f"{oracle_ok}/{len(_scenarios)}; fault-free runs: "
        f"{len(_false_alarm_rows)}, {dismissed} alarm(s) dismissed, "
        f"{phantoms} recovered around, 0 aborted (fast={FAST})",
    )
    bench_json(
        "fault_model_grid",
        {
            "fast_mode": FAST,
            "assays": list(ASSAYS),
            "models": list(MODELS),
            "sensor": {
                "false_positive_rate": SENSOR_FPR,
                "false_negative_rate": SENSOR_FNR,
            },
            "scenarios": _scenarios,
            "closed_loop_completed": closed_ok,
            "oracle_completed": oracle_ok,
            "scenario_count": len(_scenarios),
            "ladder_rung_frequencies": rung_freq,
            "detection_latency_s": {
                model: _latency_stats(lats)
                for model, lats in latency_by_model.items()
            },
        },
        default="BENCH_faultmodel.json",
    )
    bench_json(
        "false_alarm_robustness",
        {
            "fast_mode": FAST,
            "assay": ASSAYS[0],
            "sensor_fpr": FALSE_ALARM_FPR,
            "runs": _false_alarm_rows,
            "aborted_runs": sum(1 for r in _false_alarm_rows if r["aborted"]),
        },
        default="BENCH_faultmodel.json",
    )
    assert closed_ok >= oracle_ok, (
        f"closed loop ({closed_ok}) completed fewer scenarios than the "
        f"oracle ({oracle_ok})"
    )
    assert not any(r["aborted"] for r in _false_alarm_rows)
