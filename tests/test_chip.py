"""One chip: every layer runs on the array fixed at synthesis.

:class:`~repro.placement.chip.Chip` is derived once, from the nominal
placement, and carried by the synthesis result. The router plans on
it, the simulator replays on it, and recovery claims spare cells
inside it; nothing after synthesis grows it, moves its ports or
shifts its frame.
"""

from __future__ import annotations

import random
from functools import lru_cache

import pytest

from repro.assay.catalog import BUNDLED_ASSAYS, build_assay
from repro.geometry import Point
from repro.placement.annealer import AnnealingParams
from repro.placement.chip import Chip
from repro.placement.sa_placer import SimulatedAnnealingPlacer
from repro.recovery import ClosedLoopController, OnlineRecoveryEngine, fault_timeline
from repro.routing.synthesis import RoutingSynthesizer
from repro.sim.engine import BiochipSimulator
from repro.synthesis.flow import SynthesisFlow
from repro.testing import CapacitiveSensor
from repro.util.errors import SimulationError
from repro.workload.campaign import CampaignConfig, CampaignRunner

_LOSSY = CapacitiveSensor(false_positive_rate=0.02, false_negative_rate=0.05)


@lru_cache(maxsize=None)
def _routed(assay: str):
    graph, explicit = build_assay(assay)
    return SynthesisFlow(
        placer=SimulatedAnnealingPlacer(params=AnnealingParams.fast(), seed=7),
        route=True,
    ).run(graph, explicit_binding=explicit)


def _engine() -> OnlineRecoveryEngine:
    return OnlineRecoveryEngine(annealing=AnnealingParams.fast())


class TestChipValue:
    def test_of_pads_the_core_by_the_margin(self):
        result = _routed("pcr")
        placement = result.placement_result.placement
        chip = Chip.of(placement)
        assert chip == result.chip
        assert (chip.width, chip.height) == (
            placement.core_width + 2 * chip.margin,
            placement.core_height + 2 * chip.margin,
        )
        xs, ys = chip.extent
        assert len(xs) == chip.width and len(ys) == chip.height
        assert chip.cell((xs[0], ys[0])) == Point(1, 1)
        assert chip.cell((xs[-1], ys[-1])) == Point(chip.width, chip.height)

    def test_embed_translates_every_module_by_the_margin(self):
        result = _routed("ivd")
        placement = result.placement_result.placement
        embedded = result.chip.embed(placement)
        assert (embedded.core_width, embedded.core_height) == (
            result.chip.width, result.chip.height
        )
        for pm in placement:
            moved = embedded.get(pm.op_id)
            assert (moved.x, moved.y) == tuple(result.chip.cell((pm.x, pm.y)))
            assert moved.footprint.area == pm.footprint.area

    def test_ports_are_on_the_edges(self):
        chip = _routed("tree8").chip
        assert all(p.x == 1 for p in chip.dispense_ports)
        assert [p.y for p in chip.dispense_ports] == list(range(1, chip.height + 1, 2))
        assert chip.output_port.x == chip.width

    def test_claimable_core_adds_the_right_and_top_lanes(self):
        result = _routed("dilution")
        placement = result.placement_result.placement
        core = result.chip.claimable(placement)
        assert (core.core_width, core.core_height) == (
            placement.core_width + result.chip.margin,
            placement.core_height + result.chip.margin,
        )
        assert [(pm.op_id, pm.x, pm.y) for pm in core] == [
            (pm.op_id, pm.x, pm.y) for pm in placement
        ]
        assert core is not placement

    def test_the_output_port_is_the_reserved_claimable_cell(self):
        chip = _routed("pcr").chip
        # The output port is on the right margin lane, which recovery may
        # claim; the reservoirs are on the left lane, which it may not.
        assert chip.reserved == (
            Point(chip.output_port.x - chip.margin, chip.output_port.y - chip.margin),
        )

    def test_a_plan_from_another_chip_is_refused(self):
        result = _routed("pcr")
        other = Chip(result.chip.width + 2, result.chip.height, result.chip.margin)
        with pytest.raises(SimulationError, match="routing plan is"):
            BiochipSimulator(
                result.graph, result.schedule, result.binding,
                result.placement_result.placement, other,
                routing_plan=result.routing_plan,
            )


def _scenarios():
    """(design, fault events, run seed): the five bundled assays x four
    fault models x two arrivals."""
    out = []
    for assay in sorted(BUNDLED_ASSAYS):
        result = _routed(assay)
        for model in ("permanent", "intermittent", "transient", "cluster"):
            for arrival in (0.45, 0.65):
                rng = random.Random(f"{assay}|{model}|{arrival}")
                events = fault_timeline(
                    _engine(), result, model, arrival * result.makespan,
                    "pending-module", rng,
                )
                out.append((result, events, rng.randrange(2**32)))
    return out


class TestEveryLayerOnTheDesignsChip:
    @pytest.mark.parametrize(
        "mode, sensor", [("oracle", None), ("closed-loop", _LOSSY)],
        ids=["oracle", "lossy"],
    )
    def test_every_simulator_and_plan_has_the_designs_chip(
        self, mode, sensor, monkeypatch
    ):
        """Every simulator and routing plan the engine builds for a
        design has that design's chip: the same dims, ports and frame."""
        scenarios = _scenarios()
        chips = {id(result.graph): result.chip for result, _, _ in scenarios}
        sims, plans = [], []
        init, synthesize = BiochipSimulator.__init__, RoutingSynthesizer.synthesize

        def spy_init(self, graph, schedule, binding, placement, chip, *args, **kw):
            init(self, graph, schedule, binding, placement, chip, *args, **kw)
            sims.append((self, placement, chips[id(graph)]))

        def spy_route(self, graph, schedule, placement, chip, *args, **kw):
            plan = synthesize(self, graph, schedule, placement, chip, *args, **kw)
            plans.append((plan, chips[id(graph)]))
            return plan

        monkeypatch.setattr(BiochipSimulator, "__init__", spy_init)
        monkeypatch.setattr(RoutingSynthesizer, "synthesize", spy_route)
        controller = ClosedLoopController(engine=_engine(), sensor=sensor)
        merged = []
        for result, events, seed in scenarios:
            outcome = controller.run(result, events, seed=seed, mode=mode)
            merged += [
                (r.routing_plan, result.chip) for r in outcome.recoveries if r.routing_plan
            ]
        monkeypatch.undo()
        assert len(sims) >= 40 and len(plans) >= 30 and len(merged) >= 30
        for sim, placement, chip in sims:
            assert sim.chip == chip
            assert (sim.placement.core_width, sim.placement.core_height) == (
                chip.width, chip.height
            )
            assert sim._dispense_cycle == chip.dispense_ports
            for pm in placement:
                moved = sim.placement.get(pm.op_id)
                assert (moved.x, moved.y) == tuple(chip.cell((pm.x, pm.y)))
        for plan, chip in plans + merged:
            assert (plan.width, plan.height, plan.margin) == (
                chip.width, chip.height, chip.margin
            )


#: campaign-grid's four design pairs as one grid.
_GRID_A = (
    "pcr", "gen:mix-tree:n=50:seed=50",
    "dilution", "gen:panel:n=50:seed=50",
    "ivd", "gen:diamond:n=50:seed=50",
    "tree8", "gen:dilution-ladder:n=50:seed=50",
)


def test_grid_a_runs_no_rung_replay_on_a_grown_chip(monkeypatch):
    """campaign-grid's designs x four fault models, lossy sensor,
    campaign seed 3: every rung replay runs on the array of its
    design's nominal replay, in the same frame. Sizing each replay's
    array from its own placement's bounding box puts 13 of these 28 on
    a larger one."""
    designs = {}
    rungs = []
    flow_run = SynthesisFlow.run
    attempt, simulator = OnlineRecoveryEngine._attempt, OnlineRecoveryEngine.simulator
    inside: list = []

    def spy_flow(self, *args, **kwargs):
        result = flow_run(self, *args, **kwargs)
        designs[id(result.graph)] = result
        return result

    def spy_attempt(self, result, checkpoint, working, *args, **kwargs):
        inside.append([])
        try:
            return attempt(self, result, checkpoint, working, *args, **kwargs)
        finally:
            rungs.append((result.graph, working, inside.pop()[-1]))

    def spy_simulator(self, *args, **kwargs):
        sim = simulator(self, *args, **kwargs)
        if inside:
            inside[-1].append(sim)
        return sim

    monkeypatch.setattr(SynthesisFlow, "run", spy_flow)
    monkeypatch.setattr(OnlineRecoveryEngine, "_attempt", spy_attempt)
    monkeypatch.setattr(OnlineRecoveryEngine, "simulator", spy_simulator)
    config = CampaignConfig.from_dict({
        "campaign": {"name": "grid-a", "seed": 3, "max_parked": 2, "fast": True},
        "grid": [{
            "generators": list(_GRID_A),
            "fault_models": ["none", "permanent", "intermittent", "cluster"],
            "sensors": ["fpr=0.02,fnr=0.05"],
        }],
    }, source="grid-a")
    report = CampaignRunner(config).run(None, jobs=1)
    monkeypatch.undo()
    assert report.completed_count == len(report.records) == 32

    def dims(sim):
        return sim.placement.core_width, sim.placement.core_height

    def frame(sim, placement):
        return {
            (sim.placement.get(pm.op_id).x - pm.x, sim.placement.get(pm.op_id).y - pm.y)
            for pm in placement
        }

    nominal = {}
    for key, design in designs.items():
        placement = design.placement_result.placement
        sim = _engine().simulator(design, placement, design.routing_plan)
        nominal[key] = (dims(sim), frame(sim, placement))
    grown = shifted = 0
    for graph, working, sim in rungs:
        array, offsets = nominal[id(graph)]
        grown += dims(sim) != array
        shifted += frame(sim, working) != offsets
    assert (len(rungs), grown, shifted) == (28, 0, 0)
