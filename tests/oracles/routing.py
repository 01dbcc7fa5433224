"""Reference routing engine: the oracle for the packed router.

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
the packed search and so returns identical trajectories.

:class:`ReferenceSynthesizer` wires one end to end: ``reference=True``
routes on :class:`ReferenceTimeGrid` with full-round negotiation (the
packed engine's perf baseline), ``cross_check=True`` on
:class:`CrossCheckTimeGrid` with both negotiation shapes. On those
grids the parking search also runs its generic ``Point``-based form,
which picks the same cell as the packed one.

:func:`route_engine` picks the path the packed grids built inside it
take: the compiled store and searches (``_route.c``) or their packed
Python forms, and the path :meth:`~repro.routing.RoutingPlan.verify`
proves a plan on. :data:`ENGINES` parametrizes a test over both; the
compiled one is skipped on a host with no C compiler.
:func:`kernel_proves` and :func:`python_proof` are the two proofs'
own verdicts, each without the other.
"""

from __future__ import annotations

import heapq
import shlex
import shutil
import sysconfig
from collections import deque
from contextlib import contextmanager
from unittest import mock

import pytest
from oracles.timegrid import CrossCheckTimeGrid, ReferenceTimeGrid

from repro.geometry import Point
from repro.placement import compiled
from repro.routing.plan import Net, RoutedNet, RoutingPlan, chebyshev
from repro.routing.prioritized import PrioritizedRouter
from repro.routing.synthesis import RoutingSynthesizer
from repro.routing.timegrid import TimeGrid
from repro.util.errors import RoutingError


def _compiler_on_path() -> bool:
    cc = sysconfig.get_config_var("CC")
    return bool(cc) and shutil.which(shlex.split(cc)[0]) is not None


#: Skips a test that needs the compiled kernels on a host with no C compiler.
needs_compiler = pytest.mark.skipif(not _compiler_on_path(), reason="no C compiler on PATH")

#: The production proof, which :func:`route_engine` wraps.
_verify = RoutingPlan.verify

#: The router's two paths, for ``pytest.mark.parametrize("engine", ENGINES)``.
ENGINES = (pytest.param("compiled", marks=needs_compiler), "python")


@contextmanager
def route_engine(engine: str):
    """Packed grids built and plans proven inside the block run on
    *engine*'s path: ``"compiled"`` (which must have loaded) or
    ``"python"``. On the compiled path every ``plan.verify()`` also
    holds the kernel's verdict to the Python proof's, which its Python
    fallback would otherwise hide when the kernel wrongly rejects."""
    if engine == "compiled":
        assert compiled.route_kernel() is not None, "the compiled kernels did not load"

        def cross_checked(plan: RoutingPlan) -> None:
            _verify(plan)  # raises only when the kernel and the Python both reject
            assert kernel_proves(plan), "the kernel rejects a plan the Python proof accepts"
            error = python_proof(plan)
            assert error is None, f"the kernel proves a plan the Python proof rejects: {error}"

        with mock.patch.object(RoutingPlan, "verify", cross_checked):
            yield
    else:
        with mock.patch.object(compiled, "route_kernel", lambda: None):
            yield


def kernel_proves(plan: RoutingPlan) -> bool:
    """The compiled ``route_verify``'s own verdict on *plan*."""
    kernel = compiled.route_kernel()
    assert kernel is not None, "the compiled kernels did not load"
    return plan._proved_by(kernel)


def python_proof(plan: RoutingPlan) -> str | None:
    """The Python proof's verdict on *plan*: its error message, or
    ``None`` when the plan proves."""
    with mock.patch.object(compiled, "route_kernel", lambda: None):
        try:
            _verify(plan)
        except RoutingError as exc:
            return str(exc)
    return None


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
