"""Assay generators the tests use as inputs.

* :func:`random_assay` — random, valid assay DAGs mixing
  mix/store/detect operations, for the integration properties;
* :func:`build_pcr_full_graph` — the PCR mixing stage with its eight
  dispenses and a final output, for the simulator's end-to-end run;
* :func:`routed_assay` and :func:`ci_grid_designs` — routed designs of
  the bundled assays and of ``examples/campaigns/ci-grid.toml``, built
  once per session, and :func:`closed_loop_scenarios`, the bundled
  assays under four fault models at two arrivals;
* :func:`batches` and :func:`routed_plan` — random obstacle fields with
  spaced nets, and one routed on an 8x8 grid as a one-epoch plan, for
  the plan-proof properties.
"""

from __future__ import annotations

import random
from functools import lru_cache
from pathlib import Path

from hypothesis import strategies as st

from repro.assay.catalog import BUNDLED_ASSAYS, build_assay
from repro.assay.graph import SequencingGraph
from repro.assay.operations import Operation, OperationType
from repro.assay.protocols.pcr import PCR_REAGENTS, build_pcr_mixing_graph
from repro.geometry import Point
from repro.placement.annealer import AnnealingParams
from repro.placement.sa_placer import SimulatedAnnealingPlacer
from repro.recovery import OnlineRecoveryEngine, fault_timeline
from repro.routing import Net, PrioritizedRouter, RoutingEpoch, RoutingPlan, TimeGrid
from repro.synthesis.flow import SynthesisFlow
from repro.util.rng import ensure_rng
from repro.workload.campaign import CampaignConfig, CampaignRunner, _Unit

CI_GRID = Path(__file__).resolve().parents[1] / "examples/campaigns/ci-grid.toml"

#: Mixer spec names cycled over the random mixes (all from the standard
#: library, so random assays bind without custom libraries).
_MIXER_CYCLE = ("mixer-2x2", "mixer-linear-1x4", "mixer-2x3", "mixer-2x4")

#: Share of :func:`random_assay` steps that add a DETECT pass-through.
_DETECT_FRACTION = 0.15


def random_assay(
    operations: int = 12,
    seed: int | random.Random | None = None,
    store_fraction: float = 0.2,
) -> SequencingGraph:
    """A random, valid assay DAG of roughly *operations* nodes.

    Construction maintains a droplet frontier: each new MIX consumes two
    frontier droplets (or dispenses fresh reagents), STORE/DETECT pass
    one droplet through. The result always validates: it is acyclic,
    every mix has at most two producers, and there is at least one mix.
    """
    if operations < 1:
        raise ValueError(f"operations must be >= 1, got {operations}")
    if not 0 <= store_fraction <= 1:
        raise ValueError("fractions must lie in [0, 1]")
    rng = ensure_rng(seed)
    g = SequencingGraph(name=f"random-assay-{operations}")
    frontier: list[str] = []
    counter = 0

    def fresh_id(prefix: str) -> str:
        nonlocal counter
        counter += 1
        return f"{prefix}{counter}"

    # Seed the frontier with two dispensed reagents.
    for _ in range(2):
        op = Operation(
            fresh_id("D"), OperationType.DISPENSE, duration_s=2.0
        )
        g.add_operation(op)
        frontier.append(op.id)

    made = 0
    while made < operations:
        roll = rng.random()
        if roll < store_fraction and frontier:
            src = rng.choice(frontier)
            op = Operation(fresh_id("ST"), OperationType.STORE, duration_s=3.0)
            g.add_operation(op)
            g.add_dependency(src, op)
            frontier.remove(src)
            frontier.append(op.id)
        elif roll < store_fraction + _DETECT_FRACTION and frontier:
            src = rng.choice(frontier)
            op = Operation(fresh_id("DET"), OperationType.DETECT)
            g.add_operation(op)
            g.add_dependency(src, op)
            frontier.remove(src)
            frontier.append(op.id)
        else:
            # MIX: take two droplets; dispense fresh ones if short.
            while len(frontier) < 2:
                d = Operation(fresh_id("D"), OperationType.DISPENSE, duration_s=2.0)
                g.add_operation(d)
                frontier.append(d.id)
            a, b = rng.sample(frontier, 2)
            op = Operation(
                fresh_id("MIX"),
                OperationType.MIX,
                hardware=_MIXER_CYCLE[made % len(_MIXER_CYCLE)],
            )
            g.add_operation(op)
            g.add_dependency(a, op)
            g.add_dependency(b, op)
            frontier.remove(a)
            frontier.remove(b)
            frontier.append(op.id)
        made += 1

    # Route every loose droplet to an output so the assay terminates.
    for src in frontier:
        out = Operation(fresh_id("OUT"), OperationType.OUTPUT, duration_s=1.0)
        g.add_operation(out)
        g.add_dependency(src, out)
    g.validate()
    return g


def build_pcr_full_graph() -> SequencingGraph:
    """PCR mixing stage with dispense inputs and a final output step.

    The droplet-level simulator runs it end to end: eight
    dispense operations feed the four leaf mixes and the final product
    is routed to an output port.
    """
    g = build_pcr_mixing_graph()
    leaf_ids = ("M1", "M2", "M3", "M4")
    for leaf, (left, right) in zip(leaf_ids, PCR_REAGENTS):
        for reagent in (left, right):
            d = g.add_operation(
                Operation(
                    f"D-{reagent}",
                    OperationType.DISPENSE,
                    label=f"dispense {reagent}",
                    duration_s=2.0,
                    params={"reagent": reagent},
                )
            )
            g.add_dependency(d, leaf)
    out = g.add_operation(
        Operation(
            "OUT",
            OperationType.OUTPUT,
            label="PCR master mix to thermocycling",
            duration_s=1.0,
        )
    )
    g.add_dependency("M7", out)
    g.validate()
    return g


@lru_cache(maxsize=None)
def routed_assay(name: str):
    """Bundled assay *name*, synthesized and routed (fast anneal, seed 7)."""
    graph, explicit = build_assay(name)
    return SynthesisFlow(
        placer=SimulatedAnnealingPlacer(params=AnnealingParams.fast(), seed=7),
        route=True,
    ).run(graph, explicit_binding=explicit)


@lru_cache(maxsize=None)
def ci_grid_designs() -> dict:
    """The ci-grid campaign's synthesized units, by unit key."""
    config = CampaignConfig.load(CI_GRID)
    tasks, _ = CampaignRunner(config)._tasks(config.expand(), {})
    units = {task.unit.key: task.unit for task in tasks}
    return {key: _Unit(unit).result for key, unit in sorted(units.items())}


def closed_loop_scenarios() -> list:
    """(design, fault events, run seed): the five bundled assays x four
    fault models x two arrivals."""
    engine = OnlineRecoveryEngine(annealing=AnnealingParams.fast())
    out = []
    for assay in sorted(BUNDLED_ASSAYS):
        result = routed_assay(assay)
        for model in ("permanent", "intermittent", "transient", "cluster"):
            for arrival in (0.45, 0.65):
                rng = random.Random(f"{assay}|{model}|{arrival}")
                events = fault_timeline(
                    engine, result, model, arrival * result.makespan,
                    "pending-module", rng,
                )
                out.append((result, events, rng.randrange(2**32)))
    return out


cells_st = st.tuples(st.integers(1, 8), st.integers(1, 8)).map(lambda t: Point(*t))


@st.composite
def batches(draw):
    """A random obstacle field plus distinct, mutually spaced nets."""
    n_parked = draw(st.integers(0, 2))
    parked = draw(
        st.lists(cells_st, min_size=n_parked, max_size=n_parked, unique=True)
    )
    n_faulty = draw(st.integers(0, 2))
    faulty = draw(
        st.lists(cells_st, min_size=n_faulty, max_size=n_faulty, unique=True)
    )
    endpoints = draw(
        st.lists(cells_st, min_size=4, max_size=8, unique=True).filter(
            lambda pts: len(pts) % 2 == 0
        )
    )
    nets = []
    for i in range(0, len(endpoints), 2):
        nets.append(Net(f"n{i // 2}", endpoints[i], endpoints[i + 1]))
    return parked, faulty, nets


def routed_plan(batch) -> RoutingPlan:
    """*batch* routed on an 8x8 grid, as a one-epoch plan."""
    parked, faulty, nets = batch
    grid = TimeGrid(8, 8)
    grid.add_parked(parked)
    grid.add_faulty(faulty)
    router = PrioritizedRouter(strict=False)
    routed, failed = router.route_all(nets, grid)
    assert len(routed) + len(failed) == len(nets)
    epoch = RoutingEpoch(
        time_s=0.0,
        step_offset=0,
        nets=tuple(routed),
        failed=tuple(failed),
        regions=grid.regions(),
        faulty=frozenset(Point(*c) for c in faulty),
        parked=frozenset(Point(*c) for c in parked),
    )
    return RoutingPlan(8, 8, (epoch,))
