"""Tests for the simulator substrate: electrowetting model, droplets,
the bitboard transport kernel and the A* router oracle it must match,
and the parking search and the per-``Point`` BFS it must match."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import DropletRouter, reference_nearest_safe_cell

from repro.geometry import Point, Rect
from repro.sim.droplet import Droplet
from repro.sim.electrowetting import (
    SATURATION_V,
    THRESHOLD_V,
    step_time_s,
    transport_time_s,
    velocity_cm_s,
)
from repro.sim.engine import _nearest_safe_cell
from repro.sim.fastgrid import PackedDropletRouter
from repro.util.errors import RoutingError


class TestElectrowettingModel:
    def test_below_threshold_no_motion(self):
        assert velocity_cm_s(0) == 0.0
        assert velocity_cm_s(12.0) == 0.0

    def test_saturation_velocity(self):
        # Paper Section 2: up to 20 cm/s at the top of the 0-90 V range.
        assert velocity_cm_s(90.0) == pytest.approx(20.0)
        assert velocity_cm_s(200.0) == pytest.approx(20.0)  # clamped

    def test_velocity_monotone_in_voltage(self):
        vels = [velocity_cm_s(v) for v in range(0, 95, 5)]
        assert vels == sorted(vels)

    def test_quadratic_shape(self):
        mid = (THRESHOLD_V + SATURATION_V) / 2
        # Halfway up the drive range gives a quarter of max velocity.
        assert velocity_cm_s(mid) == pytest.approx(5.0)

    def test_step_time(self):
        # 1.5 mm pitch at 20 cm/s -> 7.5 ms per cell.
        assert step_time_s(90.0) == pytest.approx(0.0075)

    def test_step_time_below_threshold_raises(self):
        with pytest.raises(ValueError, match="threshold"):
            step_time_s(5.0)

    def test_transport_time_scales_linearly(self):
        assert transport_time_s(10) == pytest.approx(10 * step_time_s(65.0))
        assert transport_time_s(0) == 0.0

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            velocity_cm_s(-1)
        with pytest.raises(ValueError):
            transport_time_s(-1)


class TestDroplet:
    def test_volume_and_reagents(self):
        d = Droplet(position=Point(1, 1), contents={"a": 500.0, "b": 250.0})
        assert d.volume_nl == 750.0
        assert d.reagents == {"a", "b"}

    def test_unique_ids(self):
        a = Droplet(position=None)
        b = Droplet(position=None)
        assert a.droplet_id != b.droplet_id

    def test_merge_adds_volumes(self):
        a = Droplet(position=Point(1, 1), contents={"x": 100.0})
        b = Droplet(position=Point(1, 2), contents={"x": 50.0, "y": 25.0})
        merged = a.merged_with(b, produced_by="mix1")
        assert merged.contents == {"x": 150.0, "y": 25.0}
        assert merged.position == Point(1, 1)
        assert merged.produced_by == "mix1"
        assert merged.droplet_id not in (a.droplet_id, b.droplet_id)

    def test_concentration(self):
        d = Droplet(position=None, contents={"x": 75.0, "y": 25.0})
        assert d.concentration("x") == pytest.approx(0.75)
        assert d.concentration("absent") == 0.0

    def test_empty_droplet_concentration(self):
        assert Droplet(position=None).concentration("x") == 0.0

    def test_str_mentions_contents(self):
        d = Droplet(position=Point(2, 3), contents={"KCl": 900.0})
        assert "KCl" in str(d)


class TestDropletRouter:
    def test_straight_route(self):
        r = DropletRouter(8, 8)
        route = r.route(Point(1, 1), Point(5, 1))
        assert route.start == Point(1, 1)
        assert route.end == Point(5, 1)
        assert route.length == 4

    def test_route_is_adjacent_chain(self):
        r = DropletRouter(8, 8)
        route = r.route(Point(1, 1), Point(6, 7))
        cells = list(route)
        for a, b in zip(cells, cells[1:]):
            assert a.manhattan_distance(b) == 1

    def test_shortest_without_obstacles(self):
        r = DropletRouter(10, 10)
        route = r.route(Point(2, 2), Point(7, 9))
        assert route.length == Point(2, 2).manhattan_distance(Point(7, 9))

    def test_detours_around_module(self):
        r = DropletRouter(8, 8)
        wall = Rect(4, 1, 1, 7)  # vertical wall with a gap at the top
        route = r.route(Point(1, 1), Point(8, 1), blocked_rects=[wall])
        assert route.length > 7
        assert all(not wall.contains_point(c) for c in route)

    def test_no_path_raises(self):
        r = DropletRouter(8, 8)
        wall = Rect(4, 1, 1, 8)  # full-height wall
        with pytest.raises(RoutingError):
            r.route(Point(1, 1), Point(8, 1), blocked_rects=[wall])

    def test_blocked_cells_avoided(self):
        r = DropletRouter(5, 1)
        with pytest.raises(RoutingError):
            r.route(Point(1, 1), Point(5, 1), blocked_cells=[Point(3, 1)])

    def test_same_start_goal(self):
        r = DropletRouter(4, 4)
        route = r.route(Point(2, 2), Point(2, 2))
        assert route.length == 0

    def test_droplet_inflation_respected(self):
        r = DropletRouter(3, 9)
        # A parked droplet in the middle column inflates to a 3x3 block,
        # sealing the 3-wide corridor.
        with pytest.raises(RoutingError):
            r.route(Point(2, 1), Point(2, 9), other_droplets=[Point(2, 5)])

    def test_inflation_disabled_squeezes_past(self):
        r = DropletRouter(3, 9)
        route = r.route(
            Point(2, 1), Point(2, 9), other_droplets=[Point(2, 5)], inflate=False
        )
        assert Point(2, 5) not in set(route)

    def test_goal_droplet_merge_exemption(self):
        r = DropletRouter(5, 5)
        # Goal cell holds the droplet we are merging with.
        route = r.route(
            Point(1, 1), Point(3, 3), other_droplets=[Point(3, 3)]
        )
        assert route.end == Point(3, 3)

    def test_out_of_bounds_endpoints(self):
        r = DropletRouter(4, 4)
        with pytest.raises(RoutingError):
            r.route(Point(0, 1), Point(2, 2))

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            DropletRouter(0, 4)


def _route_outcome(router, *args, **kwargs):
    """``(start, end, length)`` of a route, or the error text."""
    try:
        route = router.route(*args, **kwargs)
    except RoutingError as exc:
        return str(exc)
    return (route.start, route.end, route.length)


class TestPackedDropletRouter:
    def test_unroutable_text_counts_in_bounds_cells(self):
        # The parked droplet's ring spills off the 1-wide array: only
        # its 3 in-bounds cells count as blocked.
        router = PackedDropletRouter(1, 5)
        with pytest.raises(RoutingError) as exc:
            router.route(Point(1, 1), Point(1, 5), other_droplets=[Point(1, 3)])
        assert str(exc.value) == (
            "no droplet path Point(x=1, y=1) -> Point(x=1, y=5) on 1x5 "
            "array with 3 blocked cells"
        )
        assert str(exc.value) == _route_outcome(
            DropletRouter(1, 5), Point(1, 1), Point(1, 5),
            other_droplets=[Point(1, 3)],
        )

    def test_out_of_bounds_endpoint_text(self):
        router = PackedDropletRouter(4, 4)
        with pytest.raises(RoutingError) as exc:
            router.route(Point(0, 1), Point(2, 2))
        assert str(exc.value) == (
            "route endpoints Point(x=0, y=1)->Point(x=2, y=2) outside the array"
        )
        assert str(exc.value) == _route_outcome(
            DropletRouter(4, 4), Point(0, 1), Point(2, 2)
        )

    def test_memoized_failure_reraises_identical_text(self):
        router = PackedDropletRouter(8, 8)
        wall = [Rect(4, 1, 1, 8)]
        first = _route_outcome(router, Point(1, 1), Point(8, 1), blocked_rects=wall)
        assert isinstance(first, str) and len(router._memo) == 1
        again = _route_outcome(router, Point(1, 1), Point(8, 1), blocked_rects=wall)
        assert again == first
        assert len(router._memo) == 1  # answered from the memo

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_the_a_star_oracle(self, seed):
        """Same lengths, endpoints and failure texts as the per-Point
        A* router over random obstacle soups on arrays from 1xN up to
        40x40 (boards wider than 64 bits, and column runs that would
        wrap without the padding), with module footprints, faulty cells
        and parked droplets up to 2 cells off the array."""
        rng = random.Random(seed)
        for _ in range(60):
            shape = rng.random()
            if shape < 0.15:
                w, h = 1, rng.randint(1, 40)
            elif shape < 0.3:
                w, h = rng.randint(1, 40), 1
            else:
                w, h = rng.randint(1, 40), rng.randint(1, 40)
            area = w * h

            def cell(slack=0):
                return Point(rng.randint(1 - slack, w + slack),
                             rng.randint(1 - slack, h + slack))

            rects = [
                Rect(rng.randint(-1, w + 2), rng.randint(-1, h + 2),
                     rng.randint(1, 6), rng.randint(1, 6))
                for _ in range(rng.randint(0, 2 + area // 120))
            ]
            args = (cell(slack=2 if rng.random() < 0.1 else 0), cell())
            kwargs = dict(
                blocked_rects=rects,
                blocked_cells=[cell(slack=2) for _ in range(rng.randint(0, 2 + area // 60))],
                other_droplets=[cell(slack=2) for _ in range(rng.randint(0, 2 + area // 90))],
                inflate=rng.random() < 0.7,
            )
            assert _route_outcome(PackedDropletRouter(w, h), *args, **kwargs) == \
                _route_outcome(DropletRouter(w, h), *args, **kwargs)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_the_a_star_oracle_on_drawn_queries(self, data):
        w = data.draw(st.integers(1, 40), label="width")
        h = data.draw(st.integers(1, 40), label="height")

        def cells(slack):
            return st.builds(Point, st.integers(1 - slack, w + slack),
                             st.integers(1 - slack, h + slack))

        rect = st.builds(Rect, st.integers(-1, w + 2), st.integers(-1, h + 2),
                         st.integers(1, 6), st.integers(1, 6))
        args = (data.draw(cells(0) | cells(2), label="start"),
                data.draw(cells(0), label="goal"))
        kwargs = dict(
            blocked_rects=data.draw(st.lists(rect, max_size=8), label="rects"),
            blocked_cells=data.draw(st.lists(cells(2), max_size=30), label="faulty"),
            other_droplets=data.draw(st.lists(cells(2), max_size=12), label="droplets"),
            inflate=data.draw(st.booleans(), label="inflate"),
        )
        assert _route_outcome(PackedDropletRouter(w, h), *args, **kwargs) == \
            _route_outcome(DropletRouter(w, h), *args, **kwargs)


class TestParkingSearch:
    """The padded-``bytearray`` parking search against the per-``Point``
    BFS of the stepped oracle."""

    @staticmethod
    def _both(w, h, start, parked, faulty, claiming):
        key = (start, frozenset(parked), tuple(faulty), tuple(claiming))
        return _nearest_safe_cell(w, h, *key), reference_nearest_safe_cell(w, h, *key)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_the_point_bfs_on_random_masks(self, seed):
        rng = random.Random(seed)
        for _ in range(150):
            w, h = rng.randint(1, 30), rng.randint(1, 30)

            def cell(slack=0):
                return Point(rng.randint(1 - slack, w + slack),
                             rng.randint(1 - slack, h + slack))

            corners = [Point(1, 1), Point(w, 1), Point(1, h), Point(w, h)]
            start = rng.choice(corners) if rng.random() < 0.3 else cell()
            density = rng.random()
            parked = [cell(slack=2) for _ in range(int(density * w * h * 0.4))]
            faulty = [cell(slack=2) for _ in range(int(density * w * h * 0.2))]
            claiming = [
                Rect(rng.randint(-1, w + 2), rng.randint(-1, h + 2),
                     rng.randint(1, 8), rng.randint(1, 8))
                for _ in range(rng.randint(0, 6))
            ]
            fast, oracle = self._both(w, h, start, parked, faulty, claiming)
            assert fast == oracle

    @pytest.mark.parametrize("start", [Point(1, 1), Point(7, 1), Point(1, 5),
                                       Point(7, 5), Point(4, 3)])
    def test_no_safe_cell_returns_none(self, start):
        whole = [Rect(0, -1, 9, 8)]
        assert self._both(7, 5, start, [], [], whole) == (None, None)
        assert self._both(1, 1, Point(1, 1), [], [], []) == (None, None)

    def test_the_ring_order_is_neighbors4_order(self):
        # Every neighbour of (3, 3) is safe; neighbors4 lists x+1 first.
        assert self._both(5, 5, Point(3, 3), [], [], []) == (Point(4, 3),) * 2
        # With x+1 parked, x-1 is next; then y+1, then y-1.
        assert self._both(5, 5, Point(3, 3), [Point(4, 3)], [], []) == (Point(2, 3),) * 2
        assert self._both(5, 5, Point(3, 3), [Point(4, 3)], [Point(2, 3)], []) == \
            (Point(3, 4),) * 2
        # On the right edge the search never steps off the array.
        assert self._both(5, 5, Point(5, 3), [], [Point(4, 3)], []) == (Point(5, 4),) * 2
