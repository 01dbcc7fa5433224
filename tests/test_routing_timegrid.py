"""Tests for the time-expanded occupancy grid."""

import pytest
from oracles.routing import in_region
from oracles.timegrid import blocked, reserved_blocked

from repro.geometry import Point, Rect
from repro.routing import Net, RoutedNet, TimeGrid


@pytest.fixture
def grid():
    return TimeGrid(10, 10)


def net(net_id="n", source=(1, 1), goal=(9, 9), producer=None, consumer=None):
    return Net(net_id, Point(*source), Point(*goal), producer=producer, consumer=consumer)


class TestConstruction:
    def test_rejects_degenerate_dims(self):
        with pytest.raises(ValueError):
            TimeGrid(0, 5)

    def test_bounds(self, grid):
        assert grid.in_bounds(Point(1, 1))
        assert grid.in_bounds(Point(10, 10))
        assert not grid.in_bounds(Point(0, 5))
        assert not grid.in_bounds(Point(5, 11))


class TestStaticObstacles:
    def test_faulty_cells_block_exactly(self, grid):
        grid.add_faulty([Point(4, 4)])
        assert grid.static_blocked(Point(4, 4))
        assert not grid.static_blocked(Point(4, 5))

    def test_parked_halo_blocks_neighborhood(self, grid):
        grid.add_parked([Point(5, 5)])
        # The cell and all 8 neighbors are blocked; distance-2 cells are not.
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                assert grid.static_blocked(Point(5 + dx, 5 + dy))
        assert not grid.static_blocked(Point(7, 5))

    def test_parked_halo_can_be_grandfathered(self, grid):
        grid.add_parked([Point(5, 5)])
        assert not grid.static_blocked(Point(5, 6), ignore_parked_halo=True)

    def test_module_blocks_unless_owner_exempt(self, grid):
        grid.add_module(Rect(3, 3, 3, 3), "M1")
        assert grid.static_blocked(Point(4, 4))
        assert not grid.static_blocked(Point(4, 4), exempt_ops=frozenset({"M1"}))
        assert not grid.static_blocked(Point(2, 3))

    def test_module_registers_region(self, grid):
        grid.add_module(Rect(3, 3, 3, 3), "M1")
        assert in_region(grid.regions(), "M1", Point(5, 5))
        assert not in_region(grid.regions(), "M1", Point(6, 6))
        assert not in_region(grid.regions(), None, Point(5, 5))

    def test_blocked_at_own_source_ignores_parked_halo(self, grid):
        # A droplet parked next to another droplet may still wait at home.
        grid.add_parked([Point(5, 5)])
        trapped = net(source=(5, 6), goal=(9, 9))
        assert not blocked(grid, Point(5, 6), 0, trapped)
        assert blocked(grid, Point(6, 6), 0, trapped)


class TestReservations:
    def test_trajectory_halo_spans_adjacent_steps(self, grid):
        rn = RoutedNet(net("a", (2, 2), (4, 2)), (Point(2, 2), Point(3, 2), Point(4, 2)))
        grid.reserve(rn, horizon=10)
        other = net("b", (9, 9), (1, 1))
        # Occupied at (3,2) on step 1 -> its 3x3 halo blocks steps 0..2.
        for step in (0, 1, 2):
            assert reserved_blocked(grid, Point(3, 2), step, other)
            assert reserved_blocked(grid, Point(2, 3), step, other)
        # After arrival the droplet parks at the goal through the horizon.
        assert reserved_blocked(grid, Point(4, 2), 9, other)
        # Far cells are never blocked.
        assert not reserved_blocked(grid, Point(8, 8), 1, other)

    def test_own_reservation_does_not_block(self, grid):
        rn = RoutedNet(net("a", (2, 2), (4, 2)), (Point(2, 2), Point(3, 2), Point(4, 2)))
        grid.reserve(rn, horizon=10)
        assert not reserved_blocked(grid, Point(3, 2), 1, rn.net)

    def test_duplicate_reservation_rejected(self, grid):
        rn = RoutedNet(net("a"), (Point(1, 1),))
        grid.reserve(rn, horizon=5)
        with pytest.raises(ValueError):
            grid.reserve(rn, horizon=5)

    def test_remove_reservation(self, grid):
        rn = RoutedNet(net("a", (2, 2), (4, 2)), (Point(2, 2), Point(3, 2), Point(4, 2)))
        grid.reserve(rn, horizon=10)
        grid.remove_reservation("a")
        other = net("b", (9, 9), (1, 1))
        assert not reserved_blocked(grid, Point(3, 2), 1, other)
        # Re-reserving after removal is allowed.
        grid.reserve(rn, horizon=10)
        assert reserved_blocked(grid, Point(3, 2), 1, other)

    def test_clear_reservations_keeps_static(self, grid):
        grid.add_faulty([Point(7, 7)])
        grid.reserve(RoutedNet(net("a"), (Point(1, 1),)), horizon=5)
        grid.clear_reservations()
        assert not reserved_blocked(grid, Point(1, 1), 0, net("b", (9, 9), (1, 2)))
        assert grid.static_blocked(Point(7, 7))

    def test_same_consumer_exempt_inside_merge_zone_only(self, grid):
        grid.add_module(Rect(6, 6, 3, 3), "MIX")
        arrived = RoutedNet(
            net("a", (7, 5), (7, 7), consumer="MIX"), (Point(7, 5), Point(7, 6), Point(7, 7))
        )
        grid.reserve(arrived, horizon=10)
        sibling = net("b", (2, 2), (7, 8), consumer="MIX")
        stranger = net("c", (2, 2), (9, 9), consumer="OTHER")
        # Inside the consumer footprint the sibling ignores the halo...
        assert not reserved_blocked(grid, Point(7, 8), 5, sibling)
        # ...but a net for another consumer does not...
        assert reserved_blocked(grid, Point(7, 8), 5, stranger)
        # ...and outside the footprint even the sibling must keep spacing.
        assert reserved_blocked(grid, Point(7, 4), 1, sibling)

    def test_same_producer_exempt_inside_split_zone(self, grid):
        grid.add_region("SRC", Rect(1, 1, 3, 3))
        share = RoutedNet(net("a", (2, 2), (9, 2), producer="SRC"), (Point(2, 2), Point(3, 2)))
        grid.reserve(share, horizon=6)
        sibling = net("b", (2, 2), (2, 9), producer="SRC")
        assert not reserved_blocked(grid, Point(2, 2), 0, sibling)
        stranger = net("c", (5, 5), (2, 9), producer="ELSE")
        assert reserved_blocked(grid, Point(2, 2), 0, stranger)
