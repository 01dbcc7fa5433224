"""Regression tests for the two-sided merge/split exemption.

The grid's exemption used to be one-sided — only the *queried* cell had
to lie in the shared merge/split zone — while the plan verifier's rule
is two-sided (both droplets' cells must). Under some fault patterns a
merge approach straddled the zone boundary and the router emitted a
plan the independent verifier rejected (the "known latent quirk" of
DESIGN.md, pre-existing on the seed code). The fix records, per
reservation entry, whether the reserving droplet's origin position is
inside the zone and grants the exemption only when both sides are.

The fault scenarios pinned here are the exact (placement seed, fault
seed) pairs that produced verifier-rejected plans before the fix: pcr
at placement seeds 0 and 7 under 10% street-fault grids. They must now
route fully and verify, identically on the compiled engine and the
reference engine kept in ``tests/oracles/``. Every plan is proven by the
compiled kernel and by the Python proof (``checked_proofs``).
"""

from __future__ import annotations

import random

import pytest
from oracles import ReferenceSynthesizer, ReferenceTimeGrid
from oracles.routing import checked_proofs
from oracles.timegrid import reserved_blocked

from repro.assay.catalog import build_assay
from repro.fault.injection import sample_street_faults
from repro.geometry import Point, Rect
from repro.pipeline.context import SynthesisContext
from repro.pipeline.stages import BindStage, PlaceStage, ScheduleStage
from repro.routing import RoutingSynthesizer
from repro.routing.plan import Net, RoutedNet
from repro.routing.timegrid import TimeGrid


def _place(assay: str, seed: int):
    graph, binding = build_assay(assay)
    context = SynthesisContext(graph=graph, explicit_binding=binding)
    BindStage().run(context)
    ScheduleStage(max_concurrent_ops=3).run(context)
    PlaceStage(seed=seed, compute_fti_report=False).run(context)
    return graph, context.schedule, context.placement_result.placement, context.chip


#: (assay, placement seed, fault seed) triples that produced
#: verifier-rejected plans under the one-sided exemption.
PREVIOUSLY_REJECTED = [
    ("pcr", 0, 1),
    ("pcr", 0, 2),
    ("pcr", 7, 1),
    ("pcr", 7, 3),
]


@pytest.fixture(autouse=True)
def checked():
    """Every ``verify()`` is held to the Python proof."""
    with checked_proofs():
        yield


@pytest.mark.parametrize("assay,pseed,fseed", PREVIOUSLY_REJECTED)
def test_previously_rejected_fault_patterns_now_verify(assay, pseed, fseed):
    graph, schedule, placement, chip = _place(assay, pseed)
    faults = sample_street_faults(placement, chip, fseed)
    plan = RoutingSynthesizer().synthesize(graph, schedule, placement, chip, faults)
    assert plan.routability == 1.0, f"unrouted nets: {plan.failed}"
    plan.verify()  # was RoutingError before the two-sided fix


@pytest.mark.parametrize("assay,pseed,fseed", PREVIOUSLY_REJECTED[:2])
def test_reference_engine_stays_bit_identical(assay, pseed, fseed):
    """The same two-sided fix lives in the reference grid oracle, so
    packed and reference plans stay bit-identical on the pinned
    scenarios."""
    graph, schedule, placement, chip = _place(assay, pseed)
    faults = sample_street_faults(placement, chip, fseed)
    packed = RoutingSynthesizer().synthesize(graph, schedule, placement, chip, faults)
    reference = ReferenceSynthesizer(reference=True).synthesize(
        graph, schedule, placement, chip, faults
    )
    assert packed == reference
    reference.verify()


def _grids():
    return TimeGrid(9, 9), ReferenceTimeGrid(9, 9)


def test_exemption_requires_origin_in_zone_on_both_grids():
    """Unit-level shape of the two-sided rule: a reserved droplet
    sitting *outside* the shared merge zone must block a sibling net's
    in-zone cell, while an in-zone origin must not."""
    zone = Rect(4, 4, 3, 3)
    for grid in _grids():
        grid.add_region("M", zone)
        # Net A parked outside the zone, adjacent to the in-zone cell (4, 4).
        outside = Net("a", Point(3, 4), Point(3, 4), consumer="M")
        grid.reserve(RoutedNet(outside, (Point(3, 4),)), horizon=6)
        probe = Net("b", Point(8, 8), Point(5, 5), consumer="M")
        # One-sided rule would exempt (4, 4) (queried cell in zone);
        # two-sided blocks it because A's origin is outside.
        assert reserved_blocked(grid, Point(4, 4), 2, probe)

    for grid in _grids():
        grid.add_region("M", zone)
        inside = Net("a", Point(4, 4), Point(4, 4), consumer="M")
        grid.reserve(RoutedNet(inside, (Point(4, 4),)), horizon=6)
        probe = Net("b", Point(8, 8), Point(5, 5), consumer="M")
        # Both sides in-zone: the merge exemption applies.
        assert not reserved_blocked(grid, Point(5, 5), 2, probe)
        # Queried cell outside the zone still blocks.
        assert reserved_blocked(grid, Point(4, 3), 2, probe)


def test_mixed_origin_flags_keep_per_origin_granularity():
    """A trajectory entering the zone contributes both out-of-zone and
    in-zone origins to overlapping (step, cell) halos; the out-of-zone
    contribution must keep blocking (per-origin, not per-cell-AND)."""
    zone = Rect(4, 4, 3, 3)
    for grid in _grids():
        grid.add_region("M", zone)
        walk = Net("a", Point(2, 4), Point(4, 4), consumer="M")
        grid.reserve(RoutedNet(walk, (Point(2, 4), Point(3, 4), Point(4, 4))), horizon=8)
        probe = Net("b", Point(8, 8), Point(5, 5), consumer="M")
        # (4, 4) at step 1 is haloed both by the out-of-zone position
        # (3, 4) and the in-zone arrival (4, 4): blocked.
        assert reserved_blocked(grid, Point(4, 4), 1, probe)
        # Deep in-zone cell (5, 5) at a late step is only covered by the
        # parked in-zone tail: exempt.
        assert not reserved_blocked(grid, Point(5, 5), 7, probe)


def test_packed_reference_parity_on_random_soups():
    """Drive both grids with identical obstacle/reservation soups and
    compare every blocked()/reserved_blocked() answer, zone flags
    included."""
    rng = random.Random(42)
    for _ in range(20):
        w = h = 8
        packed, shadow = TimeGrid(w, h), ReferenceTimeGrid(w, h)
        zone = Rect(rng.randint(1, 4), rng.randint(1, 4), 3, 3)
        for g in (packed, shadow):
            g.add_region("M", zone)
        nets = []
        for i in range(4):
            cells = [Point(rng.randint(1, w), rng.randint(1, h))]
            for _ in range(rng.randint(0, 4)):
                p = cells[-1]
                step = rng.choice([(1, 0), (-1, 0), (0, 1), (0, -1), (0, 0)])
                q = Point(
                    min(max(p.x + step[0], 1), w), min(max(p.y + step[1], 1), h)
                )
                cells.append(q)
            net = Net(
                f"n{i}", cells[0], cells[-1],
                producer="M" if rng.random() < 0.5 else None,
                consumer="M" if rng.random() < 0.5 else None,
            )
            nets.append(net)
            for g in (packed, shadow):
                g.reserve(RoutedNet(net, tuple(cells)), horizon=10)
        probe = Net("probe", Point(1, 1), Point(w, h), producer="M", consumer="M")
        for step in range(0, 11):
            for x in range(1, w + 1):
                for y in range(1, h + 1):
                    c = Point(x, y)
                    assert reserved_blocked(packed, c, step, probe) == (
                        reserved_blocked(shadow, c, step, probe)
                    ), f"divergence at {c} step {step}"
