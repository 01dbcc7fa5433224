"""Routing-synthesis benchmark: concurrent plan vs serial per-droplet baseline.

Not a paper artifact — the paper's flow stops at geometry-level
synthesis — but the proof for the new ``repro.routing`` stage: routing
every epoch's nets *concurrently* (prioritized time-expanded A* with
wait/detour negotiation plus compaction) must never be slower than the
serial baseline that moves one droplet at a time, and the verifier must
prove every plan conflict-free. Also reports raw router throughput
(nets routed per second of synthesis time).
"""

import time

import pytest

from repro.assay.protocols.dilution import build_serial_dilution_graph
from repro.assay.protocols.glucose import build_multiplexed_diagnostics_graph
from repro.assay.protocols.pcr import PCR_BINDING, build_pcr_mixing_graph
from repro.assay.synthetic import build_mix_tree
from repro.placement.annealer import AnnealingParams
from repro.placement.sa_placer import SimulatedAnnealingPlacer
from repro.routing import PrioritizedRouter, RoutingSynthesizer, TimeGrid
from repro.synthesis.flow import SynthesisFlow
from repro.util.tables import format_table

ASSAYS = {
    "pcr": lambda: (build_pcr_mixing_graph(), PCR_BINDING),
    "glucose": lambda: (build_multiplexed_diagnostics_graph(2, 2), None),
    "dilution": lambda: (build_serial_dilution_graph(4), None),
    "synthetic": lambda: (build_mix_tree(8), None),
}

_rows: dict[str, tuple] = {}


def serial_makespan(plan) -> int:
    """Baseline: one droplet at a time. Each net is routed alone against
    the epoch's static obstacles (no in-flight traffic, so no waits),
    and the nets run back to back — the makespan is the sum of the solo
    latencies, exactly what the simulator realizes when it routes
    droplets one at a time itself (its bitboard BFS fallback)."""
    router = PrioritizedRouter()
    total = 0
    for epoch in plan.epochs:
        for rn in epoch.nets:
            grid = TimeGrid(plan.width, plan.height)
            grid.add_faulty(epoch.faulty)
            for rect, owner in epoch.modules:
                grid.add_module(rect, owner)
            for op_id, rect in epoch.regions:
                grid.add_region(op_id, rect)
            grid.add_parked(epoch.parked)
            solo = router.route_one(
                rn.net, grid, router.default_horizon(grid, [rn.net])
            )
            total += solo.latency
    return total


@pytest.mark.parametrize("assay", sorted(ASSAYS))
def test_routing_synthesis(benchmark, report, assay):
    graph, binding = ASSAYS[assay]()
    flow = SynthesisFlow(
        placer=SimulatedAnnealingPlacer(params=AnnealingParams.fast(), seed=2),
        max_concurrent_ops=3,
        route=False,  # placement timed separately from routing below
    )
    placed = flow.run(graph, explicit_binding=binding)
    synthesizer = RoutingSynthesizer()

    def run():
        return synthesizer.synthesize(
            placed.graph, placed.schedule, placed.placement_result.placement
        )

    t0 = time.perf_counter()
    plan = benchmark.pedantic(run, rounds=3, iterations=1)
    elapsed = (time.perf_counter() - t0) / 3

    plan.verify()  # every benchmarked plan must prove conflict-free
    assert plan.routability == 1.0, f"{assay}: unrouted nets {plan.failed}"

    serial = serial_makespan(plan)
    routed = plan.makespan_steps
    # The acceptance bar: concurrent routing never loses to the serial
    # per-droplet baseline.
    assert routed <= serial, f"{assay}: routed {routed} > serial {serial}"

    throughput = plan.routed_count / elapsed if elapsed > 0 else float("inf")
    _rows[assay] = (
        assay,
        plan.routed_count,
        len(plan.epochs),
        routed,
        serial,
        f"{(1 - routed / serial) * 100:.0f}%" if serial else "-",
        f"{throughput:.0f}",
    )

    if len(_rows) == len(ASSAYS):
        report(
            "Routing synthesis: concurrent plan vs serial per-droplet baseline",
            format_table(
                ("assay", "nets", "epochs", "routed steps", "serial steps",
                 "reduction", "nets/s"),
                [_rows[k] for k in sorted(_rows)],
            ),
        )
