"""Integration tests for the discrete-event biochip simulator."""

import json

import pytest
from assays import build_pcr_full_graph

from repro.assay.catalog import build_assay
from repro.assay.protocols.dilution import build_serial_dilution_graph
from repro.cli import EXIT_OK, main
from repro.placement.annealer import AnnealingParams
from repro.placement.sa_placer import SimulatedAnnealingPlacer
from repro.sim.engine import BiochipSimulator
from repro.synthesis.binder import ResourceBinder
from repro.synthesis.flow import SynthesisFlow
from repro.synthesis.scheduler import integerized, list_schedule
from repro.util.errors import SimulationError

PCR_REAGENTS = {
    "KCl", "dNTP", "gelatin", "primer-f", "primer-r",
    "taq", "template-DNA", "tris-hcl",
}


@pytest.fixture(scope="module")
def pcr_sim_setup(request):
    """Graph + schedule + binding + placement for simulator tests."""
    pcr = request.getfixturevalue("pcr")
    placer = SimulatedAnnealingPlacer(params=AnnealingParams.fast(), seed=2)
    placement = placer.place(pcr.schedule, pcr.binding).placement
    return pcr, placement


class TestNominalRun:
    def test_completes_on_schedule(self, pcr_sim_setup):
        pcr, placement = pcr_sim_setup
        sim = BiochipSimulator(pcr.graph, pcr.schedule, pcr.binding, placement)
        report = sim.run()
        assert report.completed
        assert report.realized_makespan == pcr.schedule.makespan
        assert report.delay_s == 0.0

    def test_product_contains_all_reagents(self, pcr_sim_setup):
        pcr, placement = pcr_sim_setup
        sim = BiochipSimulator(pcr.graph, pcr.schedule, pcr.binding, placement)
        report = sim.run()
        assert report.completed
        assert report.product is not None
        assert report.product.reagents == PCR_REAGENTS

    def test_mass_conservation(self, pcr_sim_setup):
        pcr, placement = pcr_sim_setup
        sim = BiochipSimulator(pcr.graph, pcr.schedule, pcr.binding, placement)
        report = sim.run()
        assert report.completed
        # 8 unit droplets of 900 nl merge into one product.
        assert report.product.volume_nl == pytest.approx(8 * 900.0)

    def test_event_log_structure(self, pcr_sim_setup):
        pcr, placement = pcr_sim_setup
        sim = BiochipSimulator(pcr.graph, pcr.schedule, pcr.binding, placement)
        report = sim.run()
        assert report.completed
        kinds = {e.kind for e in report.events}
        assert {"dispense", "transport", "op-start", "op-finish"} <= kinds
        # 7 mixes -> 7 start and 7 finish events.
        assert sum(e.kind == "op-start" for e in report.events) == 7
        assert sum(e.kind == "op-finish" for e in report.events) == 7

    def test_transport_is_counted(self, pcr_sim_setup):
        pcr, placement = pcr_sim_setup
        sim = BiochipSimulator(pcr.graph, pcr.schedule, pcr.binding, placement)
        report = sim.run()
        assert report.completed
        assert report.total_transport_cells > 0


class TestFaultyRun:
    def test_fault_triggers_relocation_and_delay(self, pcr_sim_setup):
        pcr, placement = pcr_sim_setup
        sim = BiochipSimulator(pcr.graph, pcr.schedule, pcr.binding, placement)
        cell = sim.module_cell("M6")  # long-running mid-assay module
        report = sim.run(faults=[(8.0, cell)])
        assert report.completed
        assert len(report.relocations) >= 1
        assert any(r.op_id == "M6" for r in report.relocations)
        assert report.delay_s > 0
        # The product is still correct after recovery.
        assert report.product.reagents == PCR_REAGENTS

    def test_relocated_module_avoids_fault(self, pcr_sim_setup):
        pcr, placement = pcr_sim_setup
        sim = BiochipSimulator(pcr.graph, pcr.schedule, pcr.binding, placement)
        cell = sim.module_cell("M6")
        report = sim.run(faults=[(8.0, cell)])
        assert report.completed
        assert not report.final_placement.get("M6").footprint.contains_point(cell)

    def test_fault_on_unused_cell_is_harmless(self, pcr_sim_setup):
        pcr, placement = pcr_sim_setup
        sim = BiochipSimulator(pcr.graph, pcr.schedule, pcr.binding, placement)
        from repro.geometry import Point
        report = sim.run(faults=[(1.0, Point(1, 1))])  # margin cell
        assert report.completed
        assert report.relocations == []

    def test_fault_after_module_finished_no_relocation(self, pcr_sim_setup):
        pcr, placement = pcr_sim_setup
        sim = BiochipSimulator(pcr.graph, pcr.schedule, pcr.binding, placement)
        # M4 runs [0, 5); fault its cells at t=18 when only M7 runs.
        cell = sim.module_cell("M4")
        report = sim.run(faults=[(18.0, cell)])
        assert report.completed
        moved = {r.op_id for r in report.relocations}
        assert "M4" not in moved

    def test_strict_false_reports_failure(self, pcr_sim_setup):
        """An unrecoverable fault yields a failed report, not an
        exception."""
        pcr, placement = pcr_sim_setup
        sim = BiochipSimulator(pcr.graph, pcr.schedule, pcr.binding, placement)
        # Fault many cells of M7's region to make relocation impossible.
        m7 = sim.placement.get("M7")
        faults = [(0.5, c) for c in list(m7.footprint.cells())]
        report = sim.run(faults=faults)
        if not report.completed:
            assert report.failure_reason


class TestFullGraphRun:
    def test_pcr_with_dispense_and_output(self):
        graph = build_pcr_full_graph()
        binding = ResourceBinder().bind(
            graph, explicit={k: v for k, v in
                             [("M1", "mixer-2x2"), ("M2", "mixer-linear-1x4"),
                              ("M3", "mixer-2x3"), ("M4", "mixer-linear-1x4"),
                              ("M5", "mixer-linear-1x4"), ("M6", "mixer-2x2"),
                              ("M7", "mixer-2x4")]}
        )
        footprints = {o: s.footprint_area for o, s in binding.items()}
        schedule = integerized(
            list_schedule(graph, binding.durations(), max_concurrent_ops=6,
                          cell_capacity=63, footprints=footprints)
        )
        placement = SimulatedAnnealingPlacer(
            params=AnnealingParams.fast(), seed=3
        ).place(schedule, binding).placement
        sim = BiochipSimulator(graph, schedule, binding, placement)
        report = sim.run()
        assert report.completed
        assert report.product.reagents == PCR_REAGENTS
        # Output events: droplet left through the waste port.
        assert any(e.kind == "output" for e in report.events)
        assert report.product.position is None

    def test_dilution_protocol_runs(self):
        graph = build_serial_dilution_graph(3)
        flow = SynthesisFlow(
            placer=SimulatedAnnealingPlacer(params=AnnealingParams.fast(), seed=5),
            max_concurrent_ops=4,
        )
        result = flow.run(graph)
        sim = BiochipSimulator(
            graph, result.schedule, result.binding, result.placement_result.placement
        )
        report = sim.run()
        assert report.completed


class TestPlannedReplayPins:
    """Fault-free replays of routed plans that fail today: the router
    plans only module-to-module nets, and once the simulator's own
    parking diverges from the plan's it routes ad hoc into a dead end
    (ROADMAP item 1). Built on ``repro simulate --fast``'s path —
    placer seed 7, ``max_parked=2``, routed — each pin records its
    plan's unroutable-net count and must flip to a pass when the plan
    becomes what executes."""

    @pytest.mark.xfail(
        strict=True,
        raises=SimulationError,
        reason="fault-free replay leaves the routing plan and finds no droplet path",
    )
    @pytest.mark.parametrize(
        ("spec", "failed_nets"),
        [
            ("gen:mix-tree:n=64:seed=1", 0),
            ("gen:mix-tree:n=120:seed=1", 4),  # routability 115/119
            ("gen:mixed:n=64:seed=2", 0),
        ],
    )
    def test_routed_design_replays(self, spec, failed_nets):
        graph, binding = build_assay(spec)
        result = SynthesisFlow(
            placer=SimulatedAnnealingPlacer(params=AnnealingParams.fast(), seed=7),
            max_concurrent_ops=3,
            max_parked=2,
            route=True,
        ).run(graph, explicit_binding=binding)
        assert result.routing_plan.failed_count == failed_nets
        report = BiochipSimulator(
            result.graph,
            result.schedule,
            result.binding,
            result.placement_result.placement,
            routing_plan=result.routing_plan,
        ).run()
        if not report.completed:
            assert report.failure_reason.startswith("no droplet path")
            raise SimulationError(report.failure_reason)


@pytest.mark.xfail(
    strict=True,
    raises=SimulationError,
    reason="every recovered plan verifies, but the verdict replay finds no droplet path",
)
def test_closed_loop_cluster_verdict_replays(capsys):
    """``repro recover --protocol tree8 --fault-model cluster
    --fault-time 0.25 --closed-loop --sensor-fpr 0.02 --sensor-fnr
    0.05 --fast``: all three recoveries report a verified plan, yet
    the ground-truth verdict replay of the final plan dead-ends
    (ROADMAP item 1's open case)."""
    code = main([
        "recover", "--protocol", "tree8", "--fault-model", "cluster",
        "--fault-time", "0.25", "--closed-loop", "--sensor-fpr", "0.02",
        "--sensor-fnr", "0.05", "--fast", "--json",
    ])
    run = json.loads(capsys.readouterr().out)["tree8"]
    assert [r["plan_verified"] for r in run["recoveries"]] == [True] * 3
    if code != EXIT_OK or not run["completed"]:
        assert run["reason"].startswith("no droplet path")
        raise SimulationError(run["reason"])
