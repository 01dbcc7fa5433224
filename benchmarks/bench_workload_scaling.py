"""Campaign-scale workload sweep: the scenario-diversity acceptance gate.

Not a paper artifact — the acceptance gate of the workload generator +
campaign runner (:mod:`repro.workload`):

1. **Nothing is lost at scale.** A 100+-scenario campaign spanning
   every generator family at 50-500 modules completes end to end with
   one terminal JSONL record per declared scenario — the log passes
   full schema validation, including the meta/record count cross-check.
2. **Generated workloads stay routable.** Mean routability at the
   paper's workload scale (<= 120 modules, auto-sized arrays in the
   paper's 10x10-16x16 band) must hold >= 95%; the full sweep records
   how routability degrades (or doesn't) out to 500 modules.
3. **The closed loop survives the grid.** Fault scenarios run
   detection-driven recovery; per-family completion rates are recorded.
4. **Replay parity at scale.** On ``gen:mixed:n=100`` the event-driven
   replay matches the stepped simulator oracle bit for bit, nominal and
   under a mid-assay fault.

Synthesis-time scaling is measured separately on one family (mix-tree)
so the curve is not confounded by family mix.

Results land in ``BENCH_campaign.json``; the weekly ``scaling``
workflow runs the full sweep and uploads the JSON, while PR CI runs
this file under ``REPRO_BENCH_FAST=1`` (two module counts, two fault
models — a few minutes).
"""

from __future__ import annotations

import os
import time

from conftest import write_bench_json
from oracles import SteppedSimulator

from repro.assay.catalog import build_assay
from repro.placement.annealer import AnnealingParams
from repro.placement.sa_placer import SimulatedAnnealingPlacer
from repro.sim.engine import BiochipSimulator
from repro.synthesis.flow import SynthesisFlow
from repro.util.tables import format_table
from repro.workload.campaign import CampaignConfig, CampaignRunner, validate_log
from repro.workload.generator import GENERATOR_FAMILIES

FAST = os.environ.get("REPRO_BENCH_FAST", "").lower() in ("1", "true", "yes")
FAMILIES = tuple(sorted(GENERATOR_FAMILIES))
#: The paper's workloads top out around a hundred operations; above
#: that the sweep documents scaling rather than enforcing the bar.
PAPER_SCALE_N = 120
MODULE_COUNTS = (50, 120) if FAST else (50, 120, 250, 500)
TIMING_COUNTS = MODULE_COUNTS
ROUTABILITY_BAR = 0.95


def _spec(family: str, n: int) -> str:
    return f"gen:{family}:n={n}:seed={n}"


def _campaign_config() -> CampaignConfig:
    grids: list[dict] = [
        {
            "generators": [_spec(f, n) for f in FAMILIES for n in MODULE_COUNTS],
            "fault_models": ["none", "permanent"] if FAST
            else ["none", "permanent", "transient", "wearout"],
        }
    ]
    if not FAST:
        grids += [
            # Explicit array sizes around the paper's band.
            {
                "generators": [_spec(f, 80) for f in FAMILIES],
                "arrays": ["12x12", "14x14"],
                "fault_models": ["none", "cluster"],
            },
            # Lossy sensing crossed with recurring fault processes.
            {
                "generators": [_spec("panel", 64), _spec("dilution-ladder", 64)],
                "sensors": ["ideal", "fpr=0.05,fnr=0.1"],
                "fault_models": ["permanent", "intermittent"],
            },
        ]
    return CampaignConfig.from_dict(
        {"campaign": {"name": "scaling", "seed": 7}, "grid": grids},
        source="bench_workload_scaling",
    )


def test_campaign_scaling(tmp_path, report):
    config = _campaign_config()
    scenarios = config.expand()
    if not FAST:
        assert len(scenarios) >= 100, "full sweep must span 100+ scenarios"

    log = tmp_path / "campaign.jsonl"
    t0 = time.perf_counter()
    result = CampaignRunner(config).run(log, jobs=1)
    wall_s = time.perf_counter() - t0

    # Gate 1: zero silently-lost scenarios, schema-valid log.
    assert validate_log(log) == []
    assert len(result.records) == len(scenarios)
    assert all(r.status in ("ok", "infeasible", "timeout", "crashed")
               for r in result.records)

    # Per-(family, n) rollup over auto-sized arrays (the scaling curve).
    curve: dict[tuple[str, int], dict] = {}
    for r in result.records:
        if r.family is None or r.array != "auto":
            continue
        row = curve.setdefault(
            (r.family, r.n),
            {"scenarios": 0, "ok": 0, "completed": 0, "routability": []},
        )
        row["scenarios"] += 1
        row["ok"] += r.ok
        row["completed"] += r.completed
        if r.synthesis and r.synthesis.get("routability") is not None:
            row["routability"].append(r.synthesis["routability"])

    # Gate 2: the paper-scale routability bar.
    paper_vals = [
        v for (_, n), row in curve.items() if n <= PAPER_SCALE_N
        for v in row["routability"]
    ]
    paper_mean = sum(paper_vals) / len(paper_vals)
    assert paper_mean >= ROUTABILITY_BAR, (
        f"paper-scale routability {paper_mean:.1%} below {ROUTABILITY_BAR:.0%}"
    )

    rows = [
        (
            family, n, row["scenarios"], row["ok"], row["completed"],
            f"{sum(row['routability']) / len(row['routability']):.1%}"
            if row["routability"] else "-",
        )
        for (family, n), row in sorted(curve.items())
    ]
    report(
        "Campaign scaling: generator families x module count",
        format_table(
            ("family", "n", "scenarios", "ok", "completed", "routability"),
            rows,
        )
        + f"\n{len(scenarios)} scenarios, 0 lost; "
        f"paper-scale routability {paper_mean:.1%} (bar {ROUTABILITY_BAR:.0%}); "
        f"wall {wall_s:.0f}s",
    )
    write_bench_json(
        "campaign_scaling",
        {
            "fast": FAST,
            "scenario_count": len(scenarios),
            "lost_scenarios": 0,
            "status_counts": result.status_counts,
            "paper_scale_routability": paper_mean,
            "routability_bar": ROUTABILITY_BAR,
            "wall_s": wall_s,
            "curve": [
                {
                    "family": family,
                    "n": n,
                    "scenarios": row["scenarios"],
                    "ok": row["ok"],
                    "completed": row["completed"],
                    "mean_routability": (
                        sum(row["routability"]) / len(row["routability"])
                        if row["routability"] else None
                    ),
                }
                for (family, n), row in sorted(curve.items())
            ],
        },
        default="BENCH_campaign.json",
    )


def test_synthesis_time_scaling(report):
    """Synthesis wall time and routability vs module count, one family."""
    rows = []
    samples = []
    for n in TIMING_COUNTS:
        graph, binding = build_assay(_spec("mix-tree", n))
        t0 = time.perf_counter()
        result = SynthesisFlow(
            max_parked=2, seed=0, route=True
        ).run(graph, explicit_binding=binding)
        dt = time.perf_counter() - t0
        plan = result.routing_plan
        width, height = result.placement_result.placement.array_dims()
        rows.append((
            n, f"{dt:.1f}", f"{width}x{height}",
            f"{result.schedule.makespan:g}", f"{plan.routability:.1%}",
        ))
        samples.append({
            "n": n,
            "synthesis_s": dt,
            "array": f"{width}x{height}",
            "makespan_s": result.schedule.makespan,
            "routability": plan.routability,
        })
    report(
        "Synthesis-time scaling (mix-tree, max_parked=2)",
        format_table(
            ("n", "synthesis (s)", "array", "makespan (s)", "routability"),
            rows,
        ),
    )
    write_bench_json(
        "synthesis_time_scaling",
        {"fast": FAST, "family": "mix-tree", "samples": samples},
        default="BENCH_campaign.json",
    )


def test_event_replay_matches_stepped_oracle():
    """Gate 4: event-driven replay vs the stepped oracle on a 100-module
    generated design, nominal and with a fault at mid-assay aimed at
    the first module still pending."""
    graph, binding = build_assay(_spec("mixed", 100))
    result = SynthesisFlow(
        placer=SimulatedAnnealingPlacer(params=AnnealingParams.fast(), seed=7),
        max_parked=2, seed=7, route=True,
    ).run(graph, explicit_binding=binding)
    sims = [
        simulator(
            result.graph, result.schedule, result.binding,
            result.placement_result.placement,
            result.chip,
            routing_plan=result.routing_plan,
        )
        for simulator in (BiochipSimulator, SteppedSimulator)
    ]
    fault_t = 0.5 * result.schedule.makespan
    pending = sorted(
        op for op in result.placement_result.placement.op_ids()
        if result.schedule.start(op) > fault_t
    )
    assert pending, "no module pending at mid-assay"
    for faults in ([], [(fault_t, sims[0].module_cell(pending[0]))]):
        event, stepped = (sim.run(faults=faults) for sim in sims)
        assert (event.to_dict(), event.events) == (stepped.to_dict(), stepped.events)
