"""Reference routing engine and plan proof: the oracles for the
compiled router and ``route_verify``.

:class:`ReferenceRouter` is a :class:`~repro.routing.PrioritizedRouter`
that keeps the two shapes the production router replaced:

* ``reference=True`` — the original negotiation: every round clears all
  reservations and re-routes the whole batch in aged-priority order;
* ``cross_check=True`` — both negotiation shapes back to back on the
  same grid, asserting identical plans whenever the reference shape
  finished in one round (the regime where the two are equivalent by
  construction; under genuine multi-round negotiation only both
  results' validity is required).

On grids other than the packed :class:`~repro.routing.timegrid.TimeGrid`
(the :mod:`oracles.timegrid` grids) every search runs on the generic
``Point``-based A*, whose every occupancy probe goes through the grid's
public ``blocked()``; it expands states in the same canonical order as
the compiled search and so returns identical trajectories.

:class:`ReferenceSynthesizer` wires one end to end: ``reference=True``
routes on :class:`ReferenceTimeGrid` with full-round negotiation (the
packed engine's perf baseline), ``cross_check=True`` on
:class:`CrossCheckTimeGrid` with both negotiation shapes. On those
grids the parking search also runs its generic ``Point``-based form,
which picks the same cell as the compiled one.

:func:`python_proof` is the plan proof in Python, the form
:meth:`~repro.routing.RoutingPlan.verify` ran before ``route_verify``
(``_route.c``) took it over: the same checks in the same order, so it
rejects a plan with the message ``verify()`` raises.
:func:`kernel_proof` is ``verify()``'s verdict, and
:func:`checked_proofs` holds every ``verify()`` in its block to the
Python proof, verdict and message.
"""

from __future__ import annotations

import heapq
from collections import deque
from contextlib import contextmanager
from unittest import mock

from oracles.timegrid import CrossCheckTimeGrid, ReferenceTimeGrid

from repro.geometry import Point
from repro.routing.plan import Net, RoutedNet, RoutingEpoch, RoutingPlan, chebyshev
from repro.routing.prioritized import PrioritizedRouter
from repro.routing.synthesis import RoutingSynthesizer
from repro.routing.timegrid import TimeGrid
from repro.util.errors import RoutingError

#: The production proof, which :func:`checked_proofs` wraps.
_verify = RoutingPlan.verify


def kernel_proof(plan: RoutingPlan) -> str | None:
    """``plan.verify()``'s verdict, the compiled ``route_verify``'s: the
    message it raises, or ``None`` when the plan proves."""
    try:
        _verify(plan)
    except RoutingError as exc:
        return str(exc)
    return None


@contextmanager
def checked_proofs():
    """Every ``plan.verify()`` inside the block also runs the Python
    proof, and fails the test unless both accept, or both reject with
    the same message (then the production error propagates)."""

    def checked(plan: RoutingPlan) -> None:
        want = python_proof(plan)
        try:
            _verify(plan)
        except RoutingError as exc:
            assert want is not None, f"the kernel rejects a plan the Python proof accepts: {exc}"
            assert str(exc) == want, f"the kernel writes {exc!s}, the Python proof {want}"
            raise
        assert want is None, f"the kernel proves a plan the Python proof rejects: {want}"

    with mock.patch.object(RoutingPlan, "verify", checked):
        yield


def python_proof(plan: RoutingPlan) -> str | None:
    """The Python proof's verdict on *plan*: its error message, or
    ``None`` when the plan proves (see :func:`_prove`)."""
    try:
        _prove(plan)
    except RoutingError as exc:
        return str(exc)
    return None


def _prove(plan: RoutingPlan) -> None:
    """Every epoch, from scratch: each routed trajectory in net order,
    then every routed pair and every routed net against every failed
    net's stranded source."""
    for epoch in plan.epochs:
        module_cells: dict[Point, set[str]] = {}
        for rect, owner in epoch.modules:
            for cell in rect.cells():
                module_cells.setdefault(cell, set()).add(owner)
        for rn in epoch.nets:
            _verify_trajectory(plan, epoch, rn, module_cells)
        # A failed net's droplet sits at its source all epoch; its
        # own position is not a routing decision (no trajectory
        # checks), but routed traffic must still avoid it.
        stranded = [RoutedNet(net, (net.source,)) for net in epoch.failed]
        nets = list(epoch.nets)
        for i, a in enumerate(nets):
            for b in nets[i + 1 :]:
                _verify_pair(epoch, a, b)
            for s in stranded:
                _verify_pair(epoch, a, s)


def _verify_trajectory(
    plan: RoutingPlan,
    epoch: RoutingEpoch,
    rn: RoutedNet,
    module_cells: dict[Point, set[str]],
) -> None:
    net = rn.net
    if not rn.cells:
        raise RoutingError(f"net {net.net_id}: empty trajectory")
    if rn.cells[0] != net.source or rn.cells[-1] != net.goal:
        raise RoutingError(
            f"net {net.net_id}: trajectory endpoints {rn.cells[0]}->{rn.cells[-1]} "
            f"do not match net {net.source}->{net.goal}"
        )
    exempt = net.exempt_ops
    for step, p in enumerate(rn.cells):
        if not (1 <= p.x <= plan.width and 1 <= p.y <= plan.height):
            raise RoutingError(
                f"net {net.net_id}: {p} at step {step} is outside the "
                f"{plan.width}x{plan.height} array"
            )
        if step > 0 and rn.cells[step - 1].manhattan_distance(p) > 1:
            raise RoutingError(
                f"net {net.net_id}: jump {rn.cells[step - 1]} -> {p} at step {step}"
            )
        if p in epoch.faulty:
            raise RoutingError(
                f"net {net.net_id}: crosses faulty cell {p} at step {step}"
            )
        owners = module_cells.get(p)
        if owners and not owners <= exempt:
            culprit = sorted(owners - exempt)[0]
            raise RoutingError(
                f"net {net.net_id}: on active module {culprit!r} footprint "
                f"at {p}, step {step}"
            )
        if p == net.source:
            # The droplet's own parking spot is grandfathered: it
            # may pre-date a neighboring parked droplet, and routing
            # can only move it away from there.
            continue
        for q in epoch.parked:
            if chebyshev(p, q) <= 1:
                raise RoutingError(
                    f"net {net.net_id}: within one cell of parked droplet "
                    f"{q} at {p}, step {step}"
                )


def _bounds(rn: RoutedNet) -> tuple[int, int, int, int]:
    """Bounding box ``(min_x, min_y, max_x, max_y)`` over every cell the
    droplet ever occupies: the pair check's prefilter."""
    xs = [p.x for p in rn.cells]
    ys = [p.y for p in rn.cells]
    return (min(xs), min(ys), max(xs), max(ys))


def _verify_pair(epoch: RoutingEpoch, a: RoutedNet, b: RoutedNet) -> None:
    # Lifetime bounding boxes further than one cell apart can never
    # violate the fluidic constraint at any pair of steps — skip the
    # per-step scan for the (common) far-apart pairs.
    ax1, ay1, ax2, ay2 = _bounds(a)
    bx1, by1, bx2, by2 = _bounds(b)
    if bx1 - ax2 > 1 or ax1 - bx2 > 1 or by1 - ay2 > 1 or ay1 - by2 > 1:
        return
    last = max(a.latency, b.latency)
    for t in range(last + 1):
        pa, pb = a.position_at(t), b.position_at(t)
        # Same-step static constraint plus the cross-step dynamic
        # constraint (droplet moving next to where the other just was).
        for qa, qb in ((pa, pb), (a.position_at(t + 1), pb), (pa, b.position_at(t + 1))):
            if chebyshev(qa, qb) > 1:
                continue
            if _merge_exempt(epoch, a.net, b.net, qa, qb):
                continue
            if _split_parking_exempt(a.net, b.net, qa, qb):
                continue
            raise RoutingError(
                f"nets {a.net.net_id} and {b.net.net_id} violate the "
                f"fluidic constraint near step {t}: {qa} vs {qb}"
            )


def _split_parking_exempt(a: Net, b: Net, pa: Point, pb: Point) -> bool:
    """Grandfather the departure transient of two products that were
    *parked adjacent* (a placement artifact: neighboring functional
    centers). While both droplets are still within one cell of their
    own parking spots, their mutual proximity pre-dates routing and
    cannot be routed away — it ends the moment both have left.
    Co-location (distance 0) is never excused: adjacent parking
    explains closeness, not two droplets in one cell."""
    return (
        chebyshev(pa, pb) >= 1
        and chebyshev(a.source, b.source) <= 1
        and chebyshev(pa, a.source) <= 1
        and chebyshev(pb, b.source) <= 1
    )


def in_region(regions, op_id: str | None, cell: Point) -> bool:
    """True if *cell* lies inside any of *op_id*'s zones among
    *regions*, ``(op id, rect)`` pairs (an epoch's ``regions`` or a
    grid's ``regions()``)."""
    return op_id is not None and any(
        op == op_id and rect.contains_point(cell) for op, rect in regions
    )


def _merge_exempt(epoch: RoutingEpoch, a: Net, b: Net, pa: Point, pb: Point) -> bool:
    regions = epoch.regions
    if a.consumer is not None and a.consumer == b.consumer:
        if in_region(regions, a.consumer, pa) and in_region(regions, a.consumer, pb):
            return True
    if a.producer is not None and a.producer == b.producer:
        if in_region(regions, a.producer, pa) and in_region(regions, a.producer, pb):
            return True
    return False


class ReferenceRouter(PrioritizedRouter):
    """The prioritized router with the original negotiation and search."""

    def __init__(self, *args, reference: bool = False, cross_check: bool = False,
                 **kwargs) -> None:
        if reference and cross_check:
            raise ValueError("reference and cross_check are mutually exclusive")
        super().__init__(*args, **kwargs)
        self.reference = reference
        self.cross_check = cross_check

    def _negotiate(self, nets, grid, horizon, failures, trappers):
        if self.cross_check:
            return self._route_all_cross_checked(nets, grid, horizon, trappers)
        if self.reference:
            return self._negotiate_reference(nets, grid, horizon, failures, trappers)
        return super()._negotiate(nets, grid, horizon, failures, trappers)

    def _route_all_cross_checked(self, nets, grid, horizon, trappers):
        """Run the reference and incremental negotiation shapes back to
        back on the same grid and compare where equivalence is owed."""
        ref_routed, ref_failed = self._negotiate_reference(
            nets, grid, horizon, dict.fromkeys((n.net_id for n in nets), 0), trappers
        )
        ref_rounds = self.last_rounds
        routed, failed = super()._negotiate(
            nets, grid, horizon, dict.fromkeys((n.net_id for n in nets), 0), trappers
        )
        if ref_rounds == 1 and (
            routed != ref_routed
            or [n.net_id for n in failed] != [n.net_id for n in ref_failed]
        ):
            raise RoutingError(
                "cross-check: incremental negotiation diverged from the "
                "reference path on a single-round batch "
                f"({len(routed)}/{len(ref_routed)} routed)"
            )
        return routed, failed

    def _negotiate_reference(self, nets, grid, horizon, failures, trappers):
        """The original negotiation: every round clears the grid and
        re-routes the whole batch in aged-priority order."""
        key = self._order_key(failures)
        best = None
        for rounds in range(1, self.max_rounds + 1):
            order = sorted(nets, key=key)
            routed, failed = self._route_round(order, grid, horizon)
            self.last_rounds = rounds
            if not failed:
                return routed, []
            if best is None or len(failed) < len(best[1]):
                best = (routed, failed)
            self._age(failed, failures, trappers)
        routed, failed = best
        self._rebuild(grid, routed, failed, horizon)
        return routed, failed

    # -- generic search ------------------------------------------------------

    def _search(self, net: Net, grid, horizon: int) -> RoutedNet:
        if isinstance(grid, TimeGrid):
            return super()._search(net, grid, horizon)
        start, goal = net.source, net.goal
        open_heap: list[tuple[int, int, int, Point]] = [
            (start.manhattan_distance(goal), 0, 0, start)
        ]
        came_from: dict[tuple[Point, int], tuple[Point, int]] = {}
        seen: set[tuple[Point, int]] = {(start, 0)}
        pushes = 1
        while open_heap:
            _, step, _, cell = heapq.heappop(open_heap)
            if cell == goal and self._tail_free(grid, net, goal, step, horizon):
                return RoutedNet(net, self._reconstruct(came_from, cell, step))
            if step >= horizon:
                continue
            for nxt in (cell, *cell.neighbors4()):
                state = (nxt, step + 1)
                if state in seen or not grid.in_bounds(nxt):
                    continue
                if grid.blocked(nxt, step + 1, net):
                    continue
                seen.add(state)
                came_from[state] = (cell, step)
                heapq.heappush(
                    open_heap,
                    (step + 1 + nxt.manhattan_distance(goal), step + 1, pushes, nxt),
                )
                pushes += 1
        raise RoutingError(
            f"net {net.net_id}: no trajectory {start} -> {goal} within "
            f"{horizon} steps on {grid}"
        )

    @staticmethod
    def _tail_free(grid, net: Net, goal: Point, step: int, horizon: int) -> bool:
        """After arrival the droplet parks at its goal; the cell must
        stay clear of other reservations through the horizon."""
        return all(
            not grid.reserved_blocked(goal, s, net) for s in range(step + 1, horizon + 1)
        )

    @staticmethod
    def _reconstruct(came_from, cell: Point, step: int) -> tuple[Point, ...]:
        path = [cell]
        state = (cell, step)
        while state in came_from:
            state = came_from[state]
            path.append(state[0])
        return tuple(reversed(path))


class ReferenceSynthesizer(RoutingSynthesizer):
    """A :class:`RoutingSynthesizer` on the reference routing engine."""

    def __init__(self, *args, reference: bool = False, cross_check: bool = False,
                 **kwargs) -> None:
        super().__init__(
            *args,
            router=ReferenceRouter(
                strict=False, reference=reference, cross_check=cross_check
            ),
            **kwargs,
        )
        if reference:
            self.grid_factory = ReferenceTimeGrid
        elif cross_check:
            self.grid_factory = CrossCheckTimeGrid

    def _nearest_parking(self, grid, start, parked, keep_clear):
        if isinstance(grid, TimeGrid):
            return super()._nearest_parking(grid, start, parked, keep_clear)
        legal: list[Point] = []
        for x in range(1, grid.width + 1):
            for y in range(1, grid.height + 1):
                cell = Point(x, y)
                if cell == start or cell in keep_clear:
                    continue
                if grid.static_blocked(cell):
                    continue
                spacing = min((chebyshev(cell, q) for q in parked), default=99)
                if spacing > 1:
                    legal.append(cell)
        if not legal:
            return None

        def key(cell: Point) -> tuple[int, int]:
            spacing = min((chebyshev(cell, q) for q in parked), default=99)
            return (min(spacing, 4), -start.manhattan_distance(cell))

        legal.sort(key=key, reverse=True)
        for cell in legal:
            if self._keeps_connected_generic(grid, cell, parked):
                return cell
        return legal[0]

    @staticmethod
    def _keeps_connected_generic(grid, candidate: Point, parked) -> bool:
        halos = set(parked)
        halos.add(candidate)

        def free(cell: Point) -> bool:
            if grid.static_blocked(cell, ignore_parked_halo=True):
                return False
            return all(chebyshev(cell, q) > 1 for q in halos)

        free_cells = [
            Point(x, y)
            for x in range(1, grid.width + 1)
            for y in range(1, grid.height + 1)
            if free(Point(x, y))
        ]
        if not free_cells:
            return False
        seen = {free_cells[0]}
        queue = deque([free_cells[0]])
        while queue:
            cell = queue.popleft()
            for nxt in cell.neighbors4():
                if nxt not in seen and grid.in_bounds(nxt) and free(nxt):
                    seen.add(nxt)
                    queue.append(nxt)
        return len(seen) == len(free_cells)
