"""Equivalence tests for the compiled routing engine.

The packed :class:`TimeGrid`, whose reservations, A* and parking search
run in C (``_route.c``), and the original :class:`ReferenceTimeGrid`
(kept in ``tests/oracles/``) must be observationally identical on the
array: same ``static_blocked``/``reserved_blocked``/``blocked`` answers
over arbitrary obstacle/reservation soups, and — through the router —
bit-identical routing plans at fixed seeds, with and without fault
injection. The incremental negotiation must degrade gracefully to the
reference shape's results on batches the first round cannot finish.
``TestEnginesAgree`` also holds the compiled searches to the reference
engine on negotiated random batches and on parking searches over random
masks.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    CrossCheckTimeGrid,
    ReferenceRouter,
    ReferenceSynthesizer,
    ReferenceTimeGrid,
)
from oracles.timegrid import blocked, reserved_blocked

from repro.assay.catalog import BUNDLED_ASSAYS
from repro.fault.injection import sample_street_faults
from repro.geometry import Point, Rect
from repro.pipeline.context import SynthesisContext
from repro.pipeline.stages import BindStage, PlaceStage, ScheduleStage
from repro.placement.annealer import AnnealingParams
from repro.placement.sa_placer import SimulatedAnnealingPlacer
from repro.routing import (
    Net,
    PrioritizedRouter,
    RoutedNet,
    RoutingSynthesizer,
    TimeGrid,
)

OPS = ("OPA", "OPB", "OPC")


def _random_walk(rng: random.Random, width: int, height: int) -> tuple[Point, ...]:
    x = rng.randint(1, width)
    y = rng.randint(1, height)
    cells = [Point(x, y)]
    for _ in range(rng.randint(0, 8)):
        dx, dy = rng.choice(((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)))
        nx, ny = cells[-1].x + dx, cells[-1].y + dy
        if 1 <= nx <= width and 1 <= ny <= height:
            cells.append(Point(nx, ny))
        else:
            cells.append(cells[-1])
    return tuple(cells)


def _build_soup(seed: int) -> tuple[TimeGrid, ReferenceTimeGrid, int, list[Net]]:
    """The same random obstacle/reservation soup applied to both grids,
    plus probe nets with assorted producer/consumer exemptions."""
    rng = random.Random(seed)
    width, height = rng.randint(4, 8), rng.randint(4, 8)
    packed, reference = TimeGrid(width, height), ReferenceTimeGrid(width, height)
    cells = [Point(x, y) for x in range(1, width + 1) for y in range(1, height + 1)]

    for grids_cells in (rng.sample(cells, rng.randint(0, 4)),):
        packed.add_faulty(grids_cells)
        reference.add_faulty(grids_cells)
    parked = rng.sample(cells, rng.randint(0, 2))
    packed.add_parked(parked)
    reference.add_parked(parked)
    for op in OPS:
        if rng.random() < 0.7:
            w = rng.randint(1, max(1, width - 1))
            h = rng.randint(1, max(1, height - 1))
            rect = Rect(rng.randint(1, width - w + 1), rng.randint(1, height - h + 1), w, h)
            if rng.random() < 0.5:
                packed.add_module(rect, op)
                reference.add_module(rect, op)
            else:
                packed.add_region(op, rect)
                reference.add_region(op, rect)

    horizon = rng.randint(8, 16)
    reserved_ids = []
    for i in range(rng.randint(1, 5)):
        walk = _random_walk(rng, width, height)
        net = Net(
            f"n{i}",
            walk[0],
            walk[-1],
            producer=rng.choice((None, *OPS)),
            consumer=rng.choice((None, *OPS)),
        )
        rn = RoutedNet(net, walk)
        packed.reserve(rn, horizon)
        reference.reserve(rn, horizon)
        reserved_ids.append(net.net_id)
    for net_id in reserved_ids:
        if rng.random() < 0.4:
            packed.remove_reservation(net_id)
            reference.remove_reservation(net_id)

    probes = [
        Net(
            f"probe{i}",
            rng.choice(cells),
            rng.choice(cells),
            producer=rng.choice((None, *OPS)),
            consumer=rng.choice((None, *OPS)),
        )
        for i in range(2)
    ]
    return packed, reference, horizon, probes


class TestGridParity:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**9))
    def test_blocked_answers_identical_over_random_soups(self, seed):
        packed, reference, horizon, probes = _build_soup(seed)
        cells = [
            Point(x, y)
            for x in range(1, packed.width + 1)
            for y in range(1, packed.height + 1)
        ]
        for net in probes:
            exempt = net.exempt_ops
            for cell in cells:
                assert packed.static_blocked(cell, exempt) == reference.static_blocked(
                    cell, exempt
                ), (seed, cell)
                assert packed.static_blocked(
                    cell, exempt, ignore_parked_halo=True
                ) == reference.static_blocked(cell, exempt, ignore_parked_halo=True)
                # Reservations are defined through the reserve horizon
                # (+1: the halo window of the last covered step).
                for step in range(0, horizon + 2):
                    assert reserved_blocked(packed, cell, step, net) == (
                        reference.reserved_blocked(cell, step, net)
                    ), (seed, cell, step)
                    assert blocked(packed, cell, step, net) == reference.blocked(
                        cell, step, net
                    ), (seed, cell, step)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**9))
    def test_route_one_identical_over_random_soups(self, seed):
        packed, reference, horizon, probes = _build_soup(seed)
        router = ReferenceRouter()
        from repro.util.errors import RoutingError

        for net in probes:
            try:
                packed_route = router.route_one(net, packed, horizon)
            except RoutingError:
                with pytest.raises(RoutingError):
                    router.route_one(net, reference, horizon)
                continue
            assert packed_route == router.route_one(net, reference, horizon)



def _parking_case(seed: int):
    """A random parking search posed to both grids: faults, modules and
    (sometimes) grid-parked droplets on the array, plus the search's own
    already-parked droplets, keep-clear cells and start cell."""
    rng = random.Random(seed)
    width, height = rng.randint(5, 10), rng.randint(5, 10)
    packed, reference = TimeGrid(width, height), ReferenceTimeGrid(width, height)
    cells = [Point(x, y) for x in range(1, width + 1) for y in range(1, height + 1)]
    faults = rng.sample(cells, rng.randint(0, len(cells) // 8))
    for grid in (packed, reference):
        grid.add_faulty(faults)
    for op in OPS:
        if rng.random() < 0.6:
            w, h = rng.randint(1, 3), rng.randint(1, 3)
            rect = Rect(rng.randint(1, width - w + 1), rng.randint(1, height - h + 1), w, h)
            for grid in (packed, reference):
                grid.add_module(rect, op)
    if rng.random() < 0.3:
        on_grid = rng.sample(cells, 1)
        for grid in (packed, reference):
            grid.add_parked(on_grid)
    parked = set(rng.sample(cells, rng.randint(0, 4)))
    keep_clear = {
        Point(c.x + dx, c.y + dy)
        for c in rng.sample(cells, rng.randint(0, 3))
        for dx in (-1, 0, 1)
        for dy in (-1, 0, 1)
    }
    return packed, reference, rng.choice(cells), parked, keep_clear


class TestParkingSearchParity:
    """The compiled parking search picks the generic search's cell."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 10**9))
    def test_same_cell_over_random_grids(self, seed):
        packed, reference, start, parked, keep_clear = _parking_case(seed)
        got = RoutingSynthesizer._nearest_parking(packed, start, parked, keep_clear)
        want = ReferenceSynthesizer()._nearest_parking(
            reference, start, parked, keep_clear
        )
        assert got == want, seed

    def test_disconnected_free_space_returns_best_scored_cell(self):
        # A module wall across the whole array splits the free cells in
        # two, so no candidate keeps them connected: both searches fall
        # back to the best-scored candidate.
        packed = TimeGrid(9, 6)
        reference = ReferenceTimeGrid(9, 6)
        for grid in (packed, reference):
            grid.add_module(Rect(5, 1, 1, 6), "WALL")
            grid.add_faulty([Point(2, 2)])
        start, parked, keep_clear = Point(4, 3), {Point(8, 5)}, {Point(3, 3)}
        generic = ReferenceSynthesizer()
        legal = [
            Point(x, y)
            for x in range(1, 10)
            for y in range(1, 7)
            if not reference.static_blocked(Point(x, y))
            and Point(x, y) not in (start, *keep_clear)
            and max(abs(x - 8), abs(y - 5)) > 1
        ]
        assert legal
        assert not any(
            generic._keeps_connected_generic(reference, cell, parked) for cell in legal
        )
        got = RoutingSynthesizer._nearest_parking(packed, start, parked, keep_clear)
        assert got == generic._nearest_parking(reference, start, parked, keep_clear)
        # Best score: the most spacing from (8, 5) (capped at 4), then
        # the shortest haul from the start.
        assert got == max(
            legal,
            key=lambda c: (
                min(max(abs(c.x - 8), abs(c.y - 5)), 4), -start.manhattan_distance(c)
            ),
        )

    def test_no_legal_cell(self):
        packed = TimeGrid(3, 3)
        reference = ReferenceTimeGrid(3, 3)
        parked = {Point(2, 2)}  # its halo covers the whole array
        assert RoutingSynthesizer._nearest_parking(packed, Point(1, 1), parked, set()) is None
        assert ReferenceSynthesizer()._nearest_parking(
            reference, Point(1, 1), parked, set()
        ) is None


def _synthesis_inputs(assay: str):
    graph, binding = BUNDLED_ASSAYS[assay]()
    context = SynthesisContext(graph=graph, explicit_binding=binding)
    BindStage().run(context)
    ScheduleStage(max_concurrent_ops=3).run(context)
    PlaceStage(
        placer=SimulatedAnnealingPlacer(params=AnnealingParams.fast(), seed=2),
        compute_fti_report=False,
    ).run(context)
    return graph, context.schedule, context.placement_result.placement, context.chip


class TestPlanIdentity:
    @pytest.mark.parametrize("assay", sorted(BUNDLED_ASSAYS))
    def test_packed_and_reference_plans_identical(self, assay):
        graph, schedule, placement, chip = _synthesis_inputs(assay)
        for faults in ([], sample_street_faults(placement, chip, 1)):
            packed_plan = RoutingSynthesizer().synthesize(
                graph, schedule, placement, chip, faults
            )
            ref_plan = ReferenceSynthesizer(reference=True).synthesize(
                graph, schedule, placement, chip, faults
            )
            assert packed_plan == ref_plan
        # The fault-free plan must also prove itself conflict-free.
        RoutingSynthesizer().synthesize(graph, schedule, placement, chip).verify()

    def test_cross_check_mode_matches_default(self):
        graph, schedule, placement, chip = _synthesis_inputs("pcr")
        default_plan = RoutingSynthesizer().synthesize(graph, schedule, placement, chip)
        checked_plan = ReferenceSynthesizer(cross_check=True).synthesize(
            graph, schedule, placement, chip
        )
        assert checked_plan == default_plan

    def test_reference_and_cross_check_are_exclusive(self):
        with pytest.raises(ValueError):
            ReferenceSynthesizer(reference=True, cross_check=True)


class TestCrossCheckGrid:
    def test_reports_divergence_at_the_query(self):
        grid = CrossCheckTimeGrid(6, 6)
        grid.add_faulty([Point(3, 3)])
        net = Net("n", Point(1, 1), Point(6, 6))
        assert grid.blocked(Point(3, 3), 0, net)
        assert not grid.blocked(Point(5, 5), 0, net)
        # Poison the shadow only: the next query must raise.
        grid._shadow.add_faulty([Point(5, 5)])
        from repro.util.errors import RoutingError

        with pytest.raises(RoutingError, match="cross-check"):
            grid.blocked(Point(5, 5), 0, net)


class TestIncrementalNegotiation:
    def _trapped_batch(self):
        # "inner" starts walled in by "outer"'s parked droplet next door
        # in a dead-end corridor; only routing "outer" first can free it
        # (mirrors the prioritized-router yield-negotiation test).
        grid = TimeGrid(9, 5)
        grid.add_module(Rect(1, 1, 1, 5), "WALL")
        nets = [
            Net("inner", Point(2, 2), Point(9, 2), priority=5.0),
            Net("outer", Point(3, 2), Point(9, 5)),
        ]
        return grid, nets

    def test_incremental_router_frees_trapped_net(self):
        from repro.routing import RoutingEpoch, RoutingPlan

        grid, nets = self._trapped_batch()
        router = PrioritizedRouter()
        routed, failed = router.route_all(nets, grid)
        assert not failed
        assert router.last_rounds > 1  # negotiation actually happened
        epoch = RoutingEpoch(
            time_s=0.0,
            step_offset=0,
            nets=tuple(routed),
            regions=grid.regions(),
            faulty=grid.faulty,
            parked=grid.parked,
        )
        RoutingPlan(grid.width, grid.height, (epoch,)).verify()

    def test_incremental_matches_reference_outcome(self):
        grid_a, nets = self._trapped_batch()
        routed_inc, failed_inc = PrioritizedRouter().route_all(nets, grid_a)
        grid_b, nets = self._trapped_batch()
        routed_ref, failed_ref = ReferenceRouter(reference=True).route_all(
            nets, grid_b
        )
        assert not failed_inc and not failed_ref
        assert {rn.net.net_id for rn in routed_inc} == {
            rn.net.net_id for rn in routed_ref
        }

    def test_cross_check_router_on_clean_batch(self):
        grid = TimeGrid(10, 10)
        nets = [
            Net("a", Point(1, 1), Point(10, 1), priority=2.0),
            Net("b", Point(1, 10), Point(10, 10)),
        ]
        routed, failed = ReferenceRouter(cross_check=True).route_all(nets, grid)
        assert not failed
        assert {rn.net.net_id for rn in routed} == {"a", "b"}


def _footprint(grid) -> int:
    """Live reservation keys a grid holds: the reference grid's
    ``(step, cell)`` keys, or the compiled store's halo keys and tail
    cells."""
    if isinstance(grid, ReferenceTimeGrid):
        return grid.reservation_footprint()
    return grid._kernel.route_live(grid._store)


class TestReservationPruning:
    @pytest.mark.parametrize("grid_cls", [TimeGrid, ReferenceTimeGrid])
    def test_remove_reservation_releases_all_keys(self, grid_cls):
        grid = grid_cls(10, 10)
        rng = random.Random(3)
        for i in range(6):
            walk = _random_walk(rng, 10, 10)
            grid.reserve(RoutedNet(Net(f"n{i}", walk[0], walk[-1]), walk), horizon=30)
        assert _footprint(grid) > 0
        for i in range(6):
            grid.remove_reservation(f"n{i}")
        assert _footprint(grid) == 0

    @pytest.mark.parametrize("grid_cls", [TimeGrid, ReferenceTimeGrid])
    def test_negotiation_churn_does_not_grow_footprint(self, grid_cls):
        # Reserve/remove/re-reserve the same trajectories across many
        # simulated negotiation rounds: the footprint must stay exactly
        # what a single round leaves behind (the pre-fix grids kept
        # empty entry lists and per-step dicts forever).
        grid = grid_cls(12, 12)
        rng = random.Random(5)
        walks = [_random_walk(rng, 12, 12) for _ in range(5)]
        nets = [Net(f"n{i}", w[0], w[-1]) for i, w in enumerate(walks)]

        def one_round():
            for net, walk in zip(nets, walks):
                grid.reserve(RoutedNet(net, walk), horizon=40)

        one_round()
        baseline = _footprint(grid)
        for _ in range(25):
            for net in nets:
                grid.remove_reservation(net.net_id)
            one_round()
        assert _footprint(grid) == baseline


def _batch_case(seed: int, grid_cls):
    """A random static grid (a *grid_cls*) and a random batch of nets on
    it, dense enough that some batches fail their first round and
    negotiate."""
    rng = random.Random(seed)
    width, height = rng.randint(5, 9), rng.randint(5, 9)
    grid = grid_cls(width, height)
    cells = [Point(x, y) for x in range(1, width + 1) for y in range(1, height + 1)]
    grid.add_faulty(rng.sample(cells, rng.randint(0, len(cells) // 10)))
    for op in OPS:
        if rng.random() < 0.5:
            w, h = rng.randint(1, 2), rng.randint(1, 2)
            rect = Rect(rng.randint(1, width - w + 1), rng.randint(1, height - h + 1), w, h)
            grid.add_module(rect, op)
    ends = rng.sample(cells, 2 * rng.randint(2, 6))
    nets = [
        Net(
            f"n{i}", ends[2 * i], ends[2 * i + 1],
            producer=rng.choice((None, *OPS)), consumer=rng.choice((None, *OPS)),
            priority=rng.random(),
        )
        for i in range(len(ends) // 2)
    ]
    return grid, nets


def _grid_case(seed: int, grid_cls):
    """A random grid (a *grid_cls*) whose static mask mixes faulty,
    module and parked cells at a random density, with a parking search
    posed on it."""
    rng = random.Random(seed)
    width, height = rng.randint(3, 14), rng.randint(3, 14)
    grid = grid_cls(width, height)
    cells = [Point(x, y) for x in range(1, width + 1) for y in range(1, height + 1)]
    density = rng.random() * 0.4
    for cell in cells:
        if rng.random() < density:
            kind = rng.randrange(3)
            if kind == 0:
                grid.add_faulty([cell])
            elif kind == 1:
                grid.add_parked([cell])
            else:
                grid.add_module(Rect(cell.x, cell.y, 1, 1), rng.choice(OPS))
    parked = set(rng.sample(cells, rng.randint(0, min(6, len(cells)))))
    keep_clear = set(rng.sample(cells, rng.randint(0, min(8, len(cells)))))
    start = Point(rng.randint(0, width + 1), rng.randint(0, height + 1))
    return grid, start, parked, keep_clear


class TestEnginesAgree:
    """The compiled searches against the reference engine, directly:
    the same negotiation over the generic search and grid, and the
    generic parking search."""

    def test_negotiated_batches_route_identically(self):
        negotiated = failed = 0
        for seed in range(120):
            outcomes = []
            for router, grid_cls in (
                (PrioritizedRouter(strict=False), TimeGrid),
                (ReferenceRouter(strict=False), ReferenceTimeGrid),
            ):
                grid, nets = _batch_case(seed, grid_cls)
                routed, lost = router.route_all(nets, grid)
                outcomes.append(
                    (routed, lost, router.last_rounds, str(grid).removeprefix("Reference"))
                )
            assert outcomes[0] == outcomes[1], seed
            negotiated += outcomes[0][2] > 1
            failed += bool(outcomes[0][1])
        # The seeds reach both negotiation and final failures.
        assert negotiated and failed

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 10**9))
    def test_parking_search_agrees_over_random_masks(self, seed):
        grid, start, parked, keep_clear = _grid_case(seed, TimeGrid)
        reference, *_ = _grid_case(seed, ReferenceTimeGrid)
        got = RoutingSynthesizer._nearest_parking(grid, start, parked, keep_clear)
        want = ReferenceSynthesizer()._nearest_parking(reference, start, parked, keep_clear)
        assert got == want, seed
