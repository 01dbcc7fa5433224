"""The compiled plan proof gives every plan the Python proof's verdict
and message.

:meth:`~repro.routing.RoutingPlan.verify` asks ``route_verify``
(``_route.c``) for the first violation and formats its message; the
Python proof it replaced is the oracle (``oracles.routing.python_proof``).
A kernel that wrongly rejects would fail a good plan, one that wrongly
accepts would let a bad plan run, and one that reports another
violation than the Python proof's first would change an error's text.
All three are pinned here: on the corpus the library proves (the
nominal plans of the five bundled assays and of the ``ci-grid.toml``
designs, and every merged plan the recovery proves when the bundled
assays run closed-loop under four fault models at two arrivals, plus a
merged plan whose kept prefix epoch is planted bad), on random routed
batches with one violation of each rejection class planted, and on
hand-built plans at each check's boundary.
"""

from __future__ import annotations

from dataclasses import replace
from unittest import mock

import pytest
from assays import batches, ci_grid_designs, closed_loop_scenarios, routed_assay, routed_plan
from hypothesis import assume, given, settings
from oracles.routing import kernel_proof, python_proof

from repro.assay.catalog import BUNDLED_ASSAYS
from repro.geometry import Point, Rect
from repro.placement.annealer import AnnealingParams
from repro.recovery import ClosedLoopController, OnlineRecoveryEngine
from repro.routing import Net, RoutedNet, RoutingEpoch, RoutingPlan
from repro.util.errors import KernelBuildError, RoutingError


def _designs() -> list:
    return [routed_assay(name) for name in sorted(BUNDLED_ASSAYS)] + list(
        ci_grid_designs().values()
    )


def _recovered_plans() -> list:
    """Every plan the closed loop proves over the scenarios, with the
    number of kept prefix epochs of each merged plan."""
    proven = []
    verify = RoutingPlan.verify

    def spy(plan):
        proven.append(plan)
        return verify(plan)

    controller = ClosedLoopController(
        engine=OnlineRecoveryEngine(annealing=AnnealingParams.fast())
    )
    reused = {}
    with mock.patch.object(RoutingPlan, "verify", spy):
        for result, events, seed in closed_loop_scenarios():
            outcome = controller.run(result, events, seed=seed, mode="oracle")
            for recovery in outcome.recoveries:
                if recovery.routing_plan is not None:
                    reused[id(recovery.routing_plan)] = recovery.reused_epochs
    return [(plan, reused.get(id(plan), 0)) for plan in proven]


def test_both_proofs_agree_on_the_corpus():
    nominal = [design.routing_plan for design in _designs()]
    recovered = _recovered_plans()
    assert len(nominal) == 9 and len(recovered) >= 30
    for plan in nominal + [plan for plan, _ in recovered]:
        assert kernel_proof(plan) == python_proof(plan)
    # A kept prefix epoch is proven too: plant a faulty cell under the
    # first routed droplet of the first epoch of a merged plan.
    plan, kept = next((plan, kept) for plan, kept in recovered if kept and plan.epochs[0].nets)
    first = plan.epochs[0]
    bad_epoch = replace(first, faulty=first.faulty | {first.nets[0].cells[-1]})
    bad = replace(plan, epochs=(bad_epoch, *plan.epochs[1:]))
    message = python_proof(bad)
    assert message is not None and "faulty cell" in message
    with pytest.raises(RoutingError) as caught:
        bad.verify()
    assert str(caught.value) == message


def test_failed_build_is_a_typed_error_for_the_proof(failing_compiler):
    """A compiler that fails makes ``verify()`` raise a
    :class:`KernelBuildError` naming the command and its stderr; a
    second proof raises the same error without compiling again."""
    plan = routed_assay("pcr").routing_plan
    failing_compiler.install()
    with pytest.raises(KernelBuildError) as first:
        plan.verify()
    failing_compiler.check(first.value)
    with pytest.raises(KernelBuildError) as second:
        plan.verify()
    failing_compiler.check_again(first.value, second.value)


def planted(plan: RoutingPlan) -> tuple[dict[str, RoutingPlan], set[str]]:
    """*plan* with one violation of each rejection class planted around
    its first routed net, one plan per class, and the classes that
    must be rejected. The rest plant a check's boundary, which may or
    may not break it."""
    (epoch,) = plan.epochs
    first, *others = epoch.nets
    net, cells = first.net, first.cells
    source, goal = cells[0], cells[-1]

    def with_first(rn: RoutedNet, *extra: RoutedNet, **fields) -> RoutingPlan:
        changed = replace(epoch, nets=(rn, *others, *extra), **fields)
        return replace(plan, epochs=(changed,))

    def with_epoch(**fields) -> RoutingPlan:
        return replace(plan, epochs=(replace(epoch, **fields),))

    def beside(p: Point, dx: int, dy: int) -> Point:
        return Point(p.x + dx, p.y + dy)

    def still(net_id: str, cell: Point, **ops) -> RoutedNet:
        return RoutedNet(Net(net_id, cell, cell, **ops), (cell,))

    step = next((i for i in range(len(cells) - 1) if cells[i] != cells[i + 1]), 0)
    dx, dy = cells[step + 1].x - cells[step].x, cells[step + 1].y - cells[step].y
    ahead = Point(cells[step].x + 2 * dx, cells[step].y + 2 * dy)
    owned = replace(net, producer="OWN-P", consumer="OWN-C")
    merging = replace(net, consumer="MIX")
    spot = Rect(goal.x, goal.y, 1, 1)
    mate = still("mate", beside(goal, 1, 0), consumer="MIX")
    bad = {
        "empty trajectory": with_first(RoutedNet(net, ())),
        "endpoints": with_first(RoutedNet(replace(net, goal=beside(goal, 1, 0)), cells)),
        "outside the array": replace(plan, width=max(p.x for p in cells) - 1),
        "jump": with_first(RoutedNet(net, (cells[0], beside(cells[0], 2, 0), *cells[1:]))),
        "faulty cell": with_epoch(faulty=epoch.faulty | {goal}),
        "foreign footprint": with_epoch(modules=(*epoch.modules, (spot, "FOREIGN"))),
        "three owners": with_first(
            RoutedNet(owned, cells),
            modules=(*epoch.modules, (spot, "OWN-P"), (spot, "FOREIGN"), (spot, "OWN-C")),
        ),
        "parked halo": with_epoch(parked=epoch.parked | {goal}),
        "same-step pair": with_epoch(nets=(*epoch.nets, still("intruder", goal))),
        "stranded source": with_epoch(failed=(*epoch.failed, Net("stranded", goal, goal))),
        "co-located parking spots": with_epoch(nets=(*epoch.nets, still("twin", source))),
    }
    boundary = {
        "two own owners": with_first(
            RoutedNet(owned, cells),
            modules=(*epoch.modules, (spot, "OWN-C"), (spot, "OWN-P")),
        ),
        "parked beside the own source": with_epoch(
            parked=epoch.parked | {beside(source, 1, 1)}
        ),
        "the net one step on": with_epoch(nets=(*epoch.nets, still("intruder", ahead))),
        "the other net one step on": with_epoch(nets=(still("intruder", ahead), *epoch.nets)),
        "merge zone holding both": with_first(
            RoutedNet(merging, cells), mate,
            regions=(*epoch.regions, ("MIX", Rect(goal.x, goal.y, 2, 1))),
        ),
        "merge zone one cell short": with_first(
            RoutedNet(merging, cells), mate, regions=(*epoch.regions, ("MIX", spot))
        ),
        "adjacent parking spots": with_epoch(
            nets=(*epoch.nets, still("neighbor", beside(source, 1, 0)))
        ),
        "parking spots two apart": with_epoch(
            nets=(*epoch.nets, still("neighbor", beside(source, 2, 0)))
        ),
    }
    return {**bad, **boundary}, set(bad)


@settings(max_examples=40, deadline=None)
@given(batch=batches())
def test_property_both_proofs_agree_on_planted_violations(batch):
    """The kernel and the Python proof give every routed batch the same
    verdict and message, with and without each planted violation."""
    plan = routed_plan(batch)
    assume(plan.epochs[0].nets)
    assert kernel_proof(plan) is None and python_proof(plan) is None
    plants, rejected = planted(plan)
    for kind, bad in plants.items():
        message = python_proof(bad)
        assert kernel_proof(bad) == message, kind
        if kind in rejected:
            assert message is not None, kind


def _plan(
    *nets: RoutedNet, failed=(), modules=(), regions=(), faulty=(), parked=()
) -> RoutingPlan:
    epoch = RoutingEpoch(
        0.0, 0, nets, failed=failed, modules=modules, regions=regions,
        faulty=frozenset(Point(*c) for c in faulty),
        parked=frozenset(Point(*c) for c in parked),
    )
    return RoutingPlan(9, 9, (epoch,))


def _walk(net_id: str, *cells: tuple[int, int], **ops) -> RoutedNet:
    points = tuple(Point(*c) for c in cells)
    return RoutedNet(Net(net_id, points[0], points[-1], **ops), points)


#: name -> (plan, its message, or None when it proves).
#: Each plan sits at one check's boundary.
BOUNDARIES = {
    # Two droplets closing in on a diagonal, far from each other's
    # parking spots: at step 1 they are one cell apart, and a one step
    # on is too, at another cell; the same-step pairing is named first.
    "same step": (
        _plan(_walk("a", (2, 2), (3, 2), (4, 2)), _walk("b", (5, 3), (4, 3))),
        "nets a and b violate the fluidic constraint near step 1: Point(x=3, y=2) vs Point(x=4, y=3)",
    ),
    # Head on: at step 1 a one step on and b one step on both break;
    # a one step on is named first.
    "both one step on": (
        _plan(_walk("a", (2, 2), (3, 2), (4, 2)), _walk("b", (6, 2), (5, 2), (4, 2))),
        "nets a and b violate the fluidic constraint near step 1: Point(x=4, y=2) vs Point(x=5, y=2)",
    ),
    # b breaks the fluidic constraint with a, and later crosses a faulty
    # cell: every trajectory is checked before any pair.
    "trajectory before pairs": (
        _plan(
            _walk("a", (2, 2), (3, 2)), _walk("b", (4, 2), (5, 2), (6, 2), (7, 2)),
            faulty=((7, 2),),
        ),
        "net b: crosses faulty cell Point(x=7, y=2) at step 3",
    ),
    # a moves next to where b waits: a one step on.
    "a one step on": (
        _plan(_walk("a", (2, 2), (3, 2), (4, 2), (5, 2)), _walk("b", (6, 2))),
        "nets a and b violate the fluidic constraint near step 2: Point(x=5, y=2) vs Point(x=6, y=2)",
    ),
    # b moves next to where a waits: b one step on.
    "b one step on": (
        _plan(_walk("a", (2, 2)), _walk("b", (6, 2), (5, 2), (4, 2), (3, 2))),
        "nets a and b violate the fluidic constraint near step 2: Point(x=2, y=2) vs Point(x=3, y=2)",
    ),
    "two apart": (_plan(_walk("a", (2, 2), (2, 3)), _walk("b", (4, 2), (4, 3))), None),
    "stranded failed net": (
        _plan(_walk("a", (2, 2), (3, 2), (4, 2)), failed=(Net("f", Point(5, 3), Point(9, 9)),)),
        "nets a and f violate the fluidic constraint near step 1: Point(x=4, y=2) vs Point(x=5, y=3)",
    ),
    "three modules, two owned": (
        _plan(
            _walk("a", (2, 2), (3, 2), producer="P", consumer="C"),
            modules=((Rect(3, 2, 1, 1), "P"), (Rect(3, 2, 1, 1), "Z"), (Rect(3, 2, 1, 1), "C")),
        ),
        "net a: on active module 'Z' footprint at Point(x=3, y=2), step 1",
    ),
    "two modules, both owned": (
        _plan(
            _walk("a", (2, 2), (3, 2), producer="P", consumer="C"),
            modules=((Rect(3, 2, 1, 1), "P"), (Rect(3, 2, 1, 1), "C")),
        ),
        None,
    ),
    "parked beside the own source": (
        _plan(_walk("a", (2, 2), (2, 3), (2, 4), (2, 5), (2, 6)), parked=((1, 1),)),
        None,
    ),
    "parked beside the next step": (
        _plan(_walk("a", (2, 2), (2, 3), (2, 4)), parked=((1, 4),)),
        "net a: within one cell of parked droplet Point(x=1, y=4) at Point(x=2, y=3), step 1",
    ),
    # Merging into MIX: both cells inside the zone, then one outside.
    "merge zone holding both": (
        _plan(
            _walk("a", (2, 2), (3, 2), consumer="MIX"), _walk("b", (4, 2), consumer="MIX"),
            regions=(("MIX", Rect(3, 2, 2, 1)),),
        ),
        None,
    ),
    "merge zone one cell short": (
        _plan(
            _walk("a", (2, 2), (3, 2), consumer="MIX"), _walk("b", (4, 2), consumer="MIX"),
            regions=(("MIX", Rect(4, 2, 1, 1)),),
        ),
        "nets a and b violate the fluidic constraint near step 0: Point(x=3, y=2) vs Point(x=4, y=2)",
    ),
    "split zone holding both": (
        _plan(
            _walk("a", (2, 2), (3, 2), producer="SPLIT"), _walk("b", (4, 2), producer="SPLIT"),
            regions=(("SPLIT", Rect(3, 2, 2, 1)),),
        ),
        None,
    ),
    # Products parked adjacent may part: each within one cell of its
    # own spot; two cells from it, the transient is over.
    "adjacent spots, parting": (
        _plan(_walk("a", (3, 3), (2, 3)), _walk("b", (4, 3), (5, 3))),
        None,
    ),
    "adjacent spots, one back beside the other": (
        _plan(_walk("a", (3, 3), (2, 3)), _walk("b", (4, 3), (4, 4), (3, 4), (2, 4))),
        "nets a and b violate the fluidic constraint near step 2: Point(x=2, y=3) vs Point(x=2, y=4)",
    ),
    "co-located spots": (
        _plan(_walk("a", (3, 3), (2, 3)), _walk("b", (3, 3), (4, 3))),
        "nets a and b violate the fluidic constraint near step 0: Point(x=3, y=3) vs Point(x=3, y=3)",
    ),
    "empty trajectory": (
        _plan(RoutedNet(Net("a", Point(2, 2), Point(2, 2)), ())), "net a: empty trajectory"
    ),
    "endpoints short of the goal": (
        _plan(RoutedNet(Net("a", Point(2, 2), Point(2, 4)), (Point(2, 2), Point(2, 3)))),
        "net a: trajectory endpoints Point(x=2, y=2)->Point(x=2, y=3) do not match net Point(x=2, y=2)->Point(x=2, y=4)",
    ),
    "endpoints off the source": (
        _plan(
            RoutedNet(
                Net("a", Point(2, 2), Point(2, 4)),
                (Point(3, 2), Point(3, 3), Point(3, 4), Point(2, 4)),
            )
        ),
        "net a: trajectory endpoints Point(x=3, y=2)->Point(x=2, y=4) do not match net Point(x=2, y=2)->Point(x=2, y=4)",
    ),
    # The array's cells run from 1 to its width and height.
    "column 0": (
        _plan(_walk("a", (1, 2), (0, 2))),
        "net a: Point(x=0, y=2) at step 1 is outside the 9x9 array",
    ),
    "row 0": (
        _plan(_walk("a", (2, 1), (2, 0))),
        "net a: Point(x=2, y=0) at step 1 is outside the 9x9 array",
    ),
    "past the width": (
        _plan(_walk("a", (9, 2), (10, 2))),
        "net a: Point(x=10, y=2) at step 1 is outside the 9x9 array",
    ),
    "past the height": (
        _plan(_walk("a", (2, 9), (2, 10))),
        "net a: Point(x=2, y=10) at step 1 is outside the 9x9 array",
    ),
    "along the edges": (_plan(_walk("a", (1, 1), (1, 2)), _walk("b", (9, 8), (9, 9))), None),
    # A step is a wait or a move to a 4-neighbor.
    "diagonal step": (
        _plan(_walk("a", (2, 2), (3, 3))),
        "net a: jump Point(x=2, y=2) -> Point(x=3, y=3) at step 1",
    ),
    "two cells in one step": (
        _plan(_walk("a", (2, 2), (4, 2))),
        "net a: jump Point(x=2, y=2) -> Point(x=4, y=2) at step 1",
    ),
    "waiting in place": (_plan(_walk("a", (2, 2), (2, 2), (2, 3), (2, 3))), None),
    "faulty source": (
        _plan(_walk("a", (2, 2), (2, 3)), faulty=((2, 2),)),
        "net a: crosses faulty cell Point(x=2, y=2) at step 0",
    ),
    "faulty cell beside the path": (_plan(_walk("a", (2, 2), (2, 3)), faulty=((3, 3),)), None),
    "foreign module": (
        _plan(_walk("a", (2, 2), (3, 2), (4, 2)), modules=((Rect(4, 1, 2, 2), "Z"),)),
        "net a: on active module 'Z' footprint at Point(x=4, y=2), step 2",
    ),
    "own consumer's module": (
        _plan(
            _walk("a", (2, 2), (3, 2), (4, 2), consumer="C"),
            modules=((Rect(4, 1, 2, 2), "C"),),
        ),
        None,
    ),
    "module beside the path": (
        _plan(_walk("a", (2, 2), (3, 2)), modules=((Rect(4, 2, 2, 2), "Z"),)),
        None,
    ),
    "parked on the goal": (
        _plan(_walk("a", (2, 2), (2, 3), (2, 4)), parked=((2, 4),)),
        "net a: within one cell of parked droplet Point(x=2, y=4) at Point(x=2, y=3), step 1",
    ),
    "parked two cells off": (
        _plan(_walk("a", (2, 2), (2, 3), (2, 4)), parked=((4, 4),)),
        None,
    ),
    "stranded two apart": (
        _plan(_walk("a", (2, 2), (3, 2)), failed=(Net("f", Point(5, 2), Point(9, 9)),)),
        None,
    ),
    # Failed nets strand side by side: only routed traffic is checked
    # against them.
    "failed nets side by side": (
        _plan(
            _walk("a", (2, 2), (2, 3)),
            failed=(Net("f", Point(6, 6), Point(9, 9)), Net("g", Point(7, 6), Point(1, 1))),
        ),
        None,
    ),
    "merge zone, other consumers": (
        _plan(
            _walk("a", (2, 2), (3, 2), consumer="MIX"), _walk("b", (4, 2), consumer="OTHER"),
            regions=(("MIX", Rect(3, 2, 2, 1)),),
        ),
        "nets a and b violate the fluidic constraint near step 0: Point(x=3, y=2) vs Point(x=4, y=2)",
    ),
    "split zone one cell short": (
        _plan(
            _walk("a", (2, 2), (3, 2), producer="SPLIT"), _walk("b", (4, 2), producer="SPLIT"),
            regions=(("SPLIT", Rect(4, 2, 1, 1)),),
        ),
        "nets a and b violate the fluidic constraint near step 0: Point(x=3, y=2) vs Point(x=4, y=2)",
    ),
    "diagonal spots, parting": (
        _plan(_walk("a", (3, 3), (2, 3)), _walk("b", (4, 4), (5, 4))),
        None,
    ),
    "spots two apart, closing in": (
        _plan(_walk("a", (3, 3), (4, 3)), _walk("b", (5, 3), (6, 3))),
        "nets a and b violate the fluidic constraint near step 0: Point(x=4, y=3) vs Point(x=5, y=3)",
    ),
    # Epochs are proven in order, each from scratch.
    "second epoch": (
        RoutingPlan(9, 9, (
            RoutingEpoch(0.0, 0, (_walk("a", (2, 2), (3, 2)),)),
            RoutingEpoch(1.0, 5, (_walk("a", (2, 2), (3, 2)), _walk("b", (4, 2), (5, 2)))),
        )),
        "nets a and b violate the fluidic constraint near step 0: Point(x=3, y=2) vs Point(x=4, y=2)",
    ),
    "first epoch's pair before the second's trajectory": (
        RoutingPlan(9, 9, (
            RoutingEpoch(0.0, 0, (_walk("a", (2, 2), (3, 2)), _walk("b", (4, 2), (5, 2)))),
            RoutingEpoch(
                1.0, 5, (_walk("c", (2, 2), (2, 3)),), faulty=frozenset({Point(2, 3)})
            ),
        )),
        "nets a and b violate the fluidic constraint near step 0: Point(x=3, y=2) vs Point(x=4, y=2)",
    ),
}


@pytest.mark.parametrize("name", BOUNDARIES)
def test_boundary_plans_raise_the_python_message(name):
    plan, want = BOUNDARIES[name]
    assert python_proof(plan) == want
    assert kernel_proof(plan) == want
