"""Realize-then-replay simulation core: the acceptance gate.

The simulator's replay runs on the bitboard transport kernel (BFS
waves over one int per query) and the flat-``bytearray`` parking
search, with memoized route and parking queries and checkpoints cut
from memoized reports; the
fixed-timestep driver stays as the bit-identical reference
(``oracles.SteppedSimulator`` in ``tests/oracles/``). This benchmark is
the proof obligation of that rewrite:

1. **Parity.** On every bundled assay — nominal and through a +/-10%
   mid-assay fault grid — the two engines must produce bit-identical
   :class:`SimulationReport` observations (events, realized intervals,
   transport accounting).
2. **Replay speedup.** Aggregated over the grid, and specifically on
   the paper schedule (tree16), the event engine must beat the stepped
   reference by >= the speedup bar (4x; relaxed to 2x under
   ``REPRO_BENCH_FAST=1`` for noisy shared runners).
3. **Sweep speedup.** The simulation work of a Monte-Carlo recovery
   grid — checkpoint + resume per scenario — must clear the same bar:
   the event engine cuts checkpoints from memoized reports where the
   stepped reference replays. The end-to-end wall of one recovery campaign per
   engine is reported alongside.

Results are written machine-readably to ``BENCH_sim.json``. CI runs
this file in full mode: it takes seconds, and only the full-mode sweep
bar fails when checkpoints stop reusing memoized reports.
"""

from __future__ import annotations

import contextlib
import os
import time

import pytest
from oracles import SteppedSimulator, stepped_replays

from repro.assay.catalog import BUNDLED_ASSAYS, build_assay
from repro.placement.annealer import AnnealingParams
from repro.placement.sa_placer import SimulatedAnnealingPlacer
from repro.sim.engine import BiochipSimulator, replay_events
from repro.synthesis.flow import SynthesisFlow
from repro.util.errors import SimulationError
from repro.util.tables import format_table
from repro.workload.campaign import CampaignConfig, CampaignRunner

FAST = os.environ.get("REPRO_BENCH_FAST", "").lower() in ("1", "true", "yes")
#: Parity is a correctness gate — every bundled assay, in both modes.
ASSAYS = tuple(sorted(BUNDLED_ASSAYS))
REPS = 1 if FAST else 5
SPEEDUP_BAR = 2.0 if FAST else 4.0
SEED = 7
#: Fault arrivals: mid-assay +/- 10% of the nominal makespan.
FAULT_FRACTIONS = (0.45, 0.55)

_synth_cache: dict[str, object] = {}
_assay_rows: list[tuple] = []
_results: dict[str, dict] = {}


def _synthesized(assay: str):
    if assay not in _synth_cache:
        graph, explicit = build_assay(assay)
        flow = SynthesisFlow(
            placer=SimulatedAnnealingPlacer(
                params=AnnealingParams.fast(), seed=SEED
            )
        )
        _synth_cache[assay] = flow.run(graph, explicit_binding=explicit)
    return _synth_cache[assay]


def _simulator(assay: str, engine: str) -> BiochipSimulator:
    result = _synthesized(assay)
    simulator = SteppedSimulator if engine == "stepped" else BiochipSimulator
    return simulator(
        result.graph,
        result.schedule,
        result.binding,
        result.placement_result.placement,
        result.chip,
    )


def _scenarios(sim: BiochipSimulator) -> list[tuple[str, list]]:
    """Nominal plus one aimed fault per arrival fraction."""
    ops = sorted(pm.op_id for pm in sim.placement)
    makespan = sim.schedule.makespan
    scenarios: list[tuple[str, list]] = [("nominal", [])]
    for i, fraction in enumerate(FAULT_FRACTIONS):
        op_id = ops[(2 * i + 1) % len(ops)]
        scenarios.append(
            (
                f"fault@{fraction:.0%}",
                [(fraction * makespan, sim.module_cell(op_id))],
            )
        )
    return scenarios


def _comparable(report) -> tuple:
    """Everything a report observes, in a comparable shape."""
    return (
        report.to_dict(),
        report.events,
        [(r.op_id, r.old.footprint, r.new.footprint) for r in report.relocations],
        report.product.reagents if report.product is not None else None,
    )


def _time_runs(sim: BiochipSimulator, faults) -> tuple[float, object]:
    """Best-of-REPS wall time after one untimed warm-up run."""
    reference = sim.run(faults=faults)
    best = float("inf")
    for _ in range(REPS):
        t0 = time.perf_counter()
        report = sim.run(faults=faults)
        best = min(best, time.perf_counter() - t0)
        assert _comparable(report) == _comparable(reference)
    return best, reference


@pytest.mark.parametrize("assay", ASSAYS)
def test_engine_parity_and_speedup(assay):
    """Bit-identical reports on each scenario; record both engines' time."""
    event_sim = _simulator(assay, "event")
    stepped_sim = _simulator(assay, "stepped")
    per_assay = {"scenarios": {}}
    total_event = total_stepped = 0.0
    events_processed = 0
    for name, faults in _scenarios(event_sim):
        stepped_s, stepped_report = _time_runs(stepped_sim, faults)
        event_s, event_report = _time_runs(event_sim, faults)
        assert _comparable(event_report) == _comparable(stepped_report), (
            f"{assay}/{name}: engines diverged"
        )
        total_event += event_s
        total_stepped += stepped_s
        events_processed += replay_events(faults, event_report)
        per_assay["scenarios"][name] = {
            "completed": event_report.completed,
            "event_ms": event_s * 1000,
            "stepped_ms": stepped_s * 1000,
            "speedup": stepped_s / event_s,
            "queue_events": replay_events(faults, event_report),
            "log_events": len(event_report.events),
        }
        if assay == "pcr" and name == "nominal":
            assert event_report.completed
            assert len(event_report.product.reagents) == 8
    speedup = total_stepped / total_event
    per_assay.update(
        event_ms=total_event * 1000,
        stepped_ms=total_stepped * 1000,
        speedup=speedup,
        events_per_s=events_processed / total_event,
    )
    _results[assay] = per_assay
    _assay_rows.append(
        (
            assay,
            len(per_assay["scenarios"]),
            f"{total_stepped * 1000:.2f}",
            f"{total_event * 1000:.2f}",
            f"{speedup:.1f}x",
            f"{events_processed / total_event:,.0f}",
        )
    )


def test_replay_speedup_bar(report, bench_json):
    if len(_results) < len(ASSAYS):
        pytest.skip("needs the per-assay timings from the full module run")
    total_event = sum(r["event_ms"] for r in _results.values())
    total_stepped = sum(r["stepped_ms"] for r in _results.values())
    aggregate = total_stepped / total_event
    paper = _results["tree16"]["speedup"]
    table = format_table(
        ("assay", "scenarios", "stepped ms", "event ms", "speedup", "events/s"),
        sorted(_assay_rows),
    )
    report(
        "Replay vs stepped simulation (parity asserted per scenario)",
        f"{table}\n\naggregate {aggregate:.1f}x, paper schedule (tree16) "
        f"{paper:.1f}x (bar {SPEEDUP_BAR}x, fast={FAST})",
    )
    bench_json(
        "sim_engine_comparison",
        {
            "fast_mode": FAST,
            "reps": REPS,
            "fault_fractions": list(FAULT_FRACTIONS),
            "assays": _results,
            "aggregate_speedup": aggregate,
            "paper_schedule_speedup": paper,
            "speedup_bar": SPEEDUP_BAR,
        },
        default="BENCH_sim.json",
    )
    # The hard bar applies to the paper schedule; the all-assay
    # aggregate (dominated by tiny arrays where fixed replay overhead
    # caps the ratio) gets a softer sanity floor.
    assert paper >= SPEEDUP_BAR, (
        f"tree16 replay speedup {paper:.2f}x below the {SPEEDUP_BAR}x bar"
    )
    floor = SPEEDUP_BAR / 2
    assert aggregate >= floor, (
        f"aggregate replay speedup {aggregate:.2f}x below the {floor}x floor"
    )


def _checkpoint_grid(sim: BiochipSimulator) -> list[tuple[list, float]]:
    """(fault list, checkpoint instant) pairs that checkpoint cleanly."""
    ops = sorted(pm.op_id for pm in sim.placement)
    makespan = sim.schedule.makespan
    grid = []
    for i, fraction in enumerate((0.4, 0.5, 0.6)):
        for k in range(len(ops)):
            op_id = ops[(i + k) % len(ops)]
            faults = [(0.5 * fraction * makespan, sim.module_cell(op_id))]
            try:
                sim.checkpoint(fraction * makespan, faults=faults)
            except SimulationError:
                continue  # unrecoverable aim; try the next module
            grid.append((faults, fraction * makespan))
            break
    return grid


def test_monte_carlo_sweep_sim_speedup(report, bench_json):
    """The sim work of a recovery sweep — checkpoint + resume per
    scenario — under both engines, plus the end-to-end sweep walls."""
    assays = ("pcr",) if FAST else ("pcr", "dilution", "ivd")
    rows = []
    total_event = total_stepped = 0.0
    per_assay: dict[str, dict] = {}
    for assay in assays:
        event_sim = _simulator(assay, "event")
        stepped_sim = _simulator(assay, "stepped")
        grid = _checkpoint_grid(event_sim)
        assert grid, f"{assay}: no recoverable checkpoint scenario found"

        def sim_work(sim):
            for faults, time_s in grid:
                cp = sim.checkpoint(time_s, faults=faults)
                cp.validate(sim.schedule)
                sim.run(faults=cp.faults)

        sim_work(event_sim)  # warm both paths once, untimed
        sim_work(stepped_sim)
        best_event = best_stepped = float("inf")
        for _ in range(REPS):
            t0 = time.perf_counter()
            sim_work(stepped_sim)
            best_stepped = min(best_stepped, time.perf_counter() - t0)
            t0 = time.perf_counter()
            sim_work(event_sim)
            best_event = min(best_event, time.perf_counter() - t0)
        total_event += best_event
        total_stepped += best_stepped
        rows.append(
            (
                assay,
                len(grid),
                f"{best_stepped * 1000:.2f}",
                f"{best_event * 1000:.2f}",
                f"{best_stepped / best_event:.1f}x",
            )
        )
        per_assay[assay] = {
            "scenarios": len(grid),
            "event_ms": best_event * 1000,
            "stepped_ms": best_stepped * 1000,
            "speedup": best_stepped / best_event,
        }
    speedup = total_stepped / total_event

    sweep_walls = {}
    config = CampaignConfig.from_dict({
        "campaign": {"name": "sweep", "seed": SEED, "max_parked": None},
        "grid": [{"generators": ["pcr"], "fault_models": ["permanent"],
                  "arrivals": [0.5]}],
    })
    sweep_logs = {}
    for engine in ("event", "stepped"):
        # jobs=1 runs in-process, so the stepped pass really replays on
        # the oracle.
        replays = stepped_replays() if engine == "stepped" else contextlib.nullcontext()
        t0 = time.perf_counter()
        with replays:
            sweep_report = CampaignRunner(config).run(None, jobs=1)
        sweep_walls[engine] = time.perf_counter() - t0
        assert sweep_report.records
        sweep_logs[engine] = [r.to_dict() for r in sweep_report.records]
    assert sweep_logs["event"] == sweep_logs["stepped"], "sweep records diverged"

    table = format_table(
        ("assay", "scenarios", "stepped ms", "event ms", "speedup"), rows
    )
    report(
        "Monte-Carlo recovery sweep: checkpoint+resume sim work",
        f"{table}\n\naggregate {speedup:.1f}x (bar {SPEEDUP_BAR}x); "
        f"end-to-end sweep wall: stepped {sweep_walls['stepped']:.2f}s, "
        f"event {sweep_walls['event']:.2f}s (fast={FAST})",
    )
    bench_json(
        "sweep_sim",
        {
            "fast_mode": FAST,
            "reps": REPS,
            "assays": per_assay,
            "aggregate_speedup": speedup,
            "speedup_bar": SPEEDUP_BAR,
            "sweep_wall_s": sweep_walls,
        },
        default="BENCH_sim.json",
    )
    assert speedup >= SPEEDUP_BAR, (
        f"sweep sim speedup {speedup:.2f}x below the {SPEEDUP_BAR}x bar"
    )
