"""Tests for RoutingPlan/RoutedNet and the conflict verifier.

The property-based section is the heart of the acceptance criterion:
whatever batch the prioritized router accepts, the independently coded
verifier must prove conflict-free — and hand-built violating plans must
be rejected. Every ``verify()`` of the verifier tests is held to the
Python proof in ``tests/oracles/`` (``checked_proofs``): the same
verdict and the same message. ``tests/test_plan_proof.py`` plants one
violation of each rejection class in random batches.
"""

import pytest
from assays import batches, routed_plan
from hypothesis import given, settings
from oracles.routing import checked_proofs

from repro.geometry import Point, Rect
from repro.routing import (
    Net,
    PrioritizedRouter,
    RoutedNet,
    RoutingEpoch,
    RoutingPlan,
    TimeGrid,
)
from repro.util.errors import RoutingError


def plan_of(routed, width=10, height=10, grid=None, modules=(), faulty=(), parked=(),
            regions=()):
    epoch = RoutingEpoch(
        time_s=0.0,
        step_offset=0,
        nets=tuple(routed),
        modules=tuple(modules),
        regions=grid.regions() if grid is not None else tuple(regions),
        faulty=frozenset(faulty),
        parked=frozenset(parked),
    )
    if grid is not None:
        width, height = grid.width, grid.height
    return RoutingPlan(width, height, (epoch,))


def straight(net_id, y, x1, x2, consumer=None, producer=None):
    """A west-to-east one-row trajectory."""
    cells = tuple(Point(x, y) for x in range(x1, x2 + 1))
    return RoutedNet(Net(net_id, cells[0], cells[-1], producer, consumer), cells)


class TestRoutedNet:
    def test_metrics(self):
        cells = (Point(1, 1), Point(2, 1), Point(2, 1), Point(2, 2))
        rn = RoutedNet(Net("n", Point(1, 1), Point(2, 2)), cells)
        assert rn.latency == 3
        assert rn.moves == 2
        assert rn.waits == 1

    def test_position_clamps_to_lifetime(self):
        rn = straight("n", 1, 1, 3)
        assert rn.position_at(-5) == Point(1, 1)
        assert rn.position_at(1) == Point(2, 1)
        assert rn.position_at(99) == Point(3, 1)


class TestPlanMetrics:
    def test_aggregates_across_epochs(self):
        e1 = RoutingEpoch(0.0, 0, (straight("a", 1, 1, 4),))
        e2 = RoutingEpoch(5.0, 3, (straight("b", 3, 1, 3), straight("c", 5, 1, 2)))
        plan = RoutingPlan(8, 8, (e1, e2))
        assert plan.routed_count == 3
        assert plan.failed_count == 0
        assert plan.routability == 1.0
        assert plan.makespan_steps == 3 + 2
        assert plan.total_route_steps == 3 + 2 + 1
        assert plan.max_net_latency == 3

    def test_net_lookup_by_edge(self):
        rn = RoutedNet(
            Net("m1->m2", Point(1, 1), Point(3, 1), producer="m1", consumer="m2"),
            (Point(1, 1), Point(2, 1), Point(3, 1)),
        )
        plan = RoutingPlan(5, 5, (RoutingEpoch(0.0, 0, (rn,)),))
        assert plan.net_for("m1", "m2") is rn
        assert plan.net_for("m2", "m1") is None

    def test_empty_plan(self):
        plan = RoutingPlan(5, 5, ())
        assert plan.routability == 1.0
        assert plan.makespan_steps == 0
        plan.verify()  # vacuously conflict-free

    def test_table_lists_failures(self):
        epoch = RoutingEpoch(
            0.0, 0, (straight("ok", 1, 1, 2),),
            failed=(Net("bad", Point(5, 5), Point(1, 5)),),
        )
        plan = RoutingPlan(6, 6, (epoch,))
        text = plan.table_text()
        assert "UNROUTED" in text and "ok" in text and "bad" in text
        assert plan.routability == 0.5


@pytest.fixture
def checked():
    """Hold every ``verify()`` of the test to the Python proof."""
    with checked_proofs():
        yield


@pytest.mark.usefixtures("checked")
class TestVerifierRejects:
    def test_same_cell_same_step(self):
        a = straight("a", 2, 1, 4)
        # b runs the same row east-to-west; they meet head on.
        cells = tuple(Point(x, 2) for x in (4, 3, 2, 1))
        b = RoutedNet(Net("b", Point(4, 2), Point(1, 2)), cells)
        with pytest.raises(RoutingError, match="fluidic constraint"):
            plan_of([a, b]).verify()

    def test_adjacent_cells_same_step(self):
        a = straight("a", 2, 1, 3)
        b = straight("b", 3, 1, 3)  # rides alongside, one row up
        with pytest.raises(RoutingError, match="fluidic constraint"):
            plan_of([a, b]).verify()

    def test_dynamic_swap_conflict(self):
        a = RoutedNet(Net("a", Point(1, 1), Point(2, 1)), (Point(1, 1), Point(2, 1)))
        b = RoutedNet(Net("b", Point(2, 1), Point(1, 1)), (Point(2, 1), Point(1, 1)))
        with pytest.raises(RoutingError, match="fluidic constraint"):
            plan_of([a, b]).verify()

    def test_dynamic_follow_conflict(self):
        # One droplet steps into the cell the other just left: never two
        # cells apart at one step, but one apart across consecutive steps.
        lead = straight("lead", 1, 3, 5)
        tail = straight("tail", 1, 1, 3)
        for nets in ([lead, tail], [tail, lead]):
            with pytest.raises(RoutingError, match="fluidic constraint"):
                plan_of(nets).verify()

    def test_trajectory_must_be_adjacent_steps(self):
        rn = RoutedNet(Net("jump", Point(1, 1), Point(3, 1)), (Point(1, 1), Point(3, 1)))
        with pytest.raises(RoutingError, match="jump"):
            plan_of([rn]).verify()

    def test_endpoints_must_match_net(self):
        rn = RoutedNet(Net("n", Point(1, 1), Point(9, 9)), (Point(1, 1), Point(2, 1)))
        with pytest.raises(RoutingError, match="endpoints"):
            plan_of([rn]).verify()

    def test_out_of_bounds_rejected(self):
        rn = straight("n", 1, 1, 6)
        with pytest.raises(RoutingError, match="outside"):
            plan_of([rn], width=4, height=4).verify()

    def test_faulty_cell_rejected(self):
        rn = straight("n", 1, 1, 5)
        with pytest.raises(RoutingError, match="faulty"):
            plan_of([rn], faulty=[Point(3, 1)]).verify()

    def test_foreign_module_rejected_but_own_allowed(self):
        rect = Rect(3, 1, 2, 3)
        crossing = straight("n", 1, 1, 5)
        with pytest.raises(RoutingError, match="active module"):
            plan_of([crossing], modules=[(rect, "M")]).verify()
        owned = straight("n", 1, 1, 4, consumer="M")
        plan_of([owned], modules=[(rect, "M")]).verify()

    def test_parked_halo_rejected_except_own_source(self):
        rn = straight("n", 1, 1, 5)
        with pytest.raises(RoutingError, match="parked"):
            plan_of([rn], parked=[Point(3, 2)]).verify()
        # A droplet parked next to the net's own source is grandfathered
        # at the source cell itself (the rest of the route clears it).
        short = straight("m", 1, 2, 4)
        plan_of([short], parked=[Point(1, 1)]).verify()


@pytest.mark.usefixtures("checked")
class TestVerifierMergeExemptions:
    def test_same_consumer_may_close_in_inside_footprint(self):
        rect = Rect(5, 1, 3, 3)
        grid = TimeGrid(9, 4)
        grid.add_module(rect, "MIX")
        a = straight("a", 2, 1, 6, consumer="MIX")
        b_cells = (Point(6, 4), Point(6, 3), Point(6, 3), Point(6, 3), Point(6, 3), Point(6, 3), Point(6, 2))
        b = RoutedNet(Net("b", Point(6, 4), Point(6, 2), consumer="MIX"), b_cells)
        plan_of([a, b], grid=grid, modules=[(rect, "MIX")]).verify()

    def test_different_consumers_never_exempt(self):
        rect = Rect(5, 1, 3, 3)
        grid = TimeGrid(9, 4)
        grid.add_module(rect, "MIX")
        a = straight("a", 2, 1, 6, consumer="MIX")
        b_cells = (Point(6, 4), Point(6, 3), Point(6, 3), Point(6, 3), Point(6, 3), Point(6, 3), Point(6, 2))
        b = RoutedNet(Net("b", Point(6, 4), Point(6, 2), consumer="OTHER"), b_cells)
        with pytest.raises(RoutingError):
            plan_of([a, b], grid=grid, modules=[(rect, "MIX"), (rect, "OTHER")]).verify()

    def test_merge_zone_holding_only_one_cell_is_no_exemption(self):
        # a reaches (4, 3), outside MIX's zone, one cell from b's (5, 4),
        # inside it: the exemption needs both cells in the zone.
        zone = Rect(5, 4, 3, 3)
        a = straight("a", 3, 2, 4, consumer="MIX")
        b = RoutedNet(Net("b", Point(5, 4), Point(5, 4), consumer="MIX"), (Point(5, 4),))
        for nets in ([a, b], [b, a]):
            with pytest.raises(RoutingError, match="fluidic constraint"):
                plan_of(nets, regions=[("MIX", zone)]).verify()
            plan_of(nets, regions=[("MIX", Rect(4, 3, 3, 3))]).verify()

    def test_split_parking_exemption_needs_both_droplets_near_their_spots(self):
        # Products parked adjacent at (2, 2) and (3, 2): a steps west and
        # stays; b walks round to (1, 3), two cells from its own spot and
        # one from a, which the departure transient no longer explains.
        a = RoutedNet(Net("a", Point(2, 2), Point(1, 2)), (Point(2, 2), Point(1, 2)))
        leaves = (Point(3, 2), Point(3, 3), Point(4, 3))
        b = RoutedNet(Net("b", leaves[0], leaves[-1]), leaves)
        plan_of([a, b]).verify()
        comes_back = (Point(3, 2), Point(3, 3), Point(2, 3), Point(1, 3))
        b = RoutedNet(Net("b", comes_back[0], comes_back[-1]), comes_back)
        for nets in ([a, b], [b, a]):
            with pytest.raises(RoutingError, match="fluidic constraint"):
                plan_of(nets).verify()


# -- property-based: router output always verifies --------------------------------


@settings(max_examples=60, deadline=None)
@given(batch=batches())
def test_property_routed_batches_always_verify(batch):
    with checked_proofs():
        plan = routed_plan(batch)
        # Whatever subset the router accepted must prove conflict-free.
        plan.verify()
