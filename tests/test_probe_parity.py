"""The probe primitives against their reference engines.

:func:`~repro.testing.test_droplet.free_cell_paths` plans on a padded
flat cell index and must return the walks the ``Point``-set planner
(:func:`oracles.reference_free_cell_paths`) returns, at every instant
the closed loop or the on-line tester probes: the placement's event
times, the ``makespan / 8`` grid, ``t = 0`` and ``t >= makespan``. The
designs are the five bundled assays and the four n=50 generated designs
of the campaign benchmark, each planned at its bounding array, at its
core size, on a larger array and on a smaller one, where footprints lie
partly off the array and are clipped.

:meth:`~repro.testing.localize.FaultLocalizer.localize` walks the path
once and must give the result of the walk-per-vote bisection
(:class:`oracles.ReferenceLocalizer`) and leave the sensor's RNG in the
same state, for every vote width and sensor noise level the closed loop
uses, and raise the same errors on a malformed path.
"""

from __future__ import annotations

import random
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import ReferenceLocalizer, reference_free_cell_paths

from repro.assay.catalog import BUNDLED_ASSAYS, build_assay
from repro.geometry import Point
from repro.modules.library import MIXER_2X2, MIXER_2X4
from repro.pipeline.context import SynthesisContext
from repro.pipeline.stages import BindStage, PlaceStage, ScheduleStage
from repro.placement.annealer import AnnealingParams
from repro.placement.model import PlacedModule, Placement
from repro.placement.sa_placer import SimulatedAnnealingPlacer
from repro.testing import CapacitiveSensor, FaultLocalizer
from repro.testing.test_droplet import free_cell_paths, snake_path

#: The campaign benchmark's generated designs.
CAMPAIGN_N50 = (
    "gen:mix-tree:n=50:seed=50",
    "gen:panel:n=50:seed=50",
    "gen:diamond:n=50:seed=50",
    "gen:dilution-ladder:n=50:seed=50",
)

DESIGNS = (*sorted(BUNDLED_ASSAYS), *CAMPAIGN_N50)

#: (false-positive, false-negative) sensor rates.
NOISE = ((0.0, 0.0), (0.02, 0.05), (0.3, 0.3))


@lru_cache(maxsize=None)
def _placement(spec: str) -> Placement:
    graph, binding = build_assay(spec)
    context = SynthesisContext(graph=graph, explicit_binding=binding)
    BindStage().run(context)
    ScheduleStage(max_parked=2).run(context)
    PlaceStage(
        placer=SimulatedAnnealingPlacer(params=AnnealingParams.fast(), seed=2),
        compute_fti_report=False,
    ).run(context)
    return context.placement_result.placement


def _probe_instants(placement: Placement) -> list[float]:
    makespan = placement.makespan()
    instants = set(placement.event_times())
    instants.update(k * makespan / 8 for k in range(9))
    instants.update((0.0, makespan + 1.0))
    return sorted(instants)


def _sizes(placement: Placement) -> list[tuple[int, int]]:
    core = (placement.core_width, placement.core_height)
    return [
        placement.array_dims(),
        core,
        (core[0] + 3, core[1] + 2),
        (max(1, core[0] - 2), max(1, core[1] - 1)),
    ]


class TestFreeCellPaths:
    @pytest.mark.parametrize("design", DESIGNS)
    def test_plans_equal_reference_at_every_probe_instant(self, design):
        placement = _placement(design)
        for width, height in _sizes(placement):
            for t in _probe_instants(placement):
                assert free_cell_paths(
                    placement, t, width=width, height=height
                ) == reference_free_cell_paths(
                    placement, t, width=width, height=height
                ), (design, width, height, t)

    def test_core_size_is_the_default(self):
        placement = _placement("pcr")
        for t in _probe_instants(placement):
            assert free_cell_paths(placement, t) == reference_free_cell_paths(
                placement, t
            )

    def test_footprint_partly_off_the_array_is_clipped(self):
        placement = Placement(14, 14)
        placement.add(PlacedModule("a", MIXER_2X4, x=4, y=2, start=0, stop=10))
        placement.add(PlacedModule("b", MIXER_2X2, x=1, y=5, start=0, stop=10))
        placement.add(PlacedModule("c", MIXER_2X2, x=9, y=9, start=0, stop=10))
        for width, height in ((5, 5), (6, 4), (1, 1), (10, 10), (12, 3), (14, 14)):
            paths = free_cell_paths(placement, 5, width=width, height=height)
            assert paths == reference_free_cell_paths(
                placement, 5, width=width, height=height
            ), (width, height)
            for path in paths:
                assert all(1 <= p.x <= width and 1 <= p.y <= height for p in path)

    def test_fully_occupied_array_has_no_walks(self):
        placement = Placement(4, 4)
        placement.add(PlacedModule("a", MIXER_2X2, x=1, y=1, start=0, stop=10))
        assert free_cell_paths(placement, 5) == []

    @pytest.mark.parametrize("width, height", [(0, 3), (3, 0)])
    def test_empty_array_raises_as_the_reference(self, width, height):
        placement = _placement("pcr")
        with pytest.raises(ValueError) as expected:
            reference_free_cell_paths(placement, 0, width=width, height=height)
        with pytest.raises(ValueError) as actual:
            free_cell_paths(placement, 0, width=width, height=height)
        assert str(actual.value) == str(expected.value)


def _dead_cells(path: list[Point], where: str, rng: random.Random) -> frozenset[Point]:
    if where == "none":
        return frozenset()
    if where == "first":
        return frozenset({path[0]})
    if where == "middle":
        return frozenset({path[len(path) // 2]})
    if where == "last":
        return frozenset({path[-1]})
    return frozenset(rng.sample(path, min(3, len(path))))


def _assert_same_localization(path, dead, votes, fpr, fnr, seed):
    sensor = CapacitiveSensor(false_positive_rate=fpr, false_negative_rate=fnr)
    expected_rng, actual_rng = random.Random(seed), random.Random(seed)
    expected = ReferenceLocalizer(sensor, votes=votes).localize(dead, path, expected_rng)
    actual = FaultLocalizer(sensor, votes=votes).localize(dead, path, actual_rng)
    assert actual == expected
    assert actual_rng.getstate() == expected_rng.getstate()
    # Without an RNG the sensor reads ideally on both sides.
    assert FaultLocalizer(sensor, votes=votes).localize(dead, path) == (
        ReferenceLocalizer(sensor, votes=votes).localize(dead, path)
    )


class TestLocalize:
    @pytest.mark.parametrize("where", ["none", "first", "middle", "last", "several"])
    @pytest.mark.parametrize("fpr, fnr", NOISE)
    @pytest.mark.parametrize("votes", [1, 3, 5])
    def test_equals_reference_on_planned_walks(self, votes, fpr, fnr, where):
        placement = _placement("tree8")
        rng = random.Random(f"{votes}/{fpr}/{where}")
        walks = [
            path
            for t in _probe_instants(placement)[:6]
            for path in free_cell_paths(placement, t)
        ]
        for seed, path in enumerate(walks):
            dead = _dead_cells(path, where, rng)
            _assert_same_localization(path, dead, votes, fpr, fnr, seed)

    @given(
        width=st.integers(1, 7),
        height=st.integers(1, 7),
        cut=st.integers(0, 48),
        dead_idx=st.lists(st.integers(0, 48), max_size=4),
        votes=st.sampled_from([1, 3, 5]),
        noise=st.sampled_from(NOISE),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=300, deadline=None)
    def test_equals_reference_on_snake_prefixes(
        self, width, height, cut, dead_idx, votes, noise, seed
    ):
        path = snake_path(width, height)[: max(1, cut)]
        dead = frozenset(path[i % len(path)] for i in dead_idx)
        _assert_same_localization(path, dead, votes, *noise, seed)

    def test_revisited_dead_cell_is_found_at_its_first_visit(self):
        # A backtracking walk passes some cells twice.
        path = [Point(1, 1), Point(2, 1), Point(3, 1), Point(2, 1), Point(2, 2)]
        for dead in ({Point(2, 1)}, {Point(2, 2)}, {Point(3, 1), Point(2, 2)}):
            for votes in (1, 3, 5):
                for fpr, fnr in NOISE:
                    _assert_same_localization(path, frozenset(dead), votes, fpr, fnr, 3)

    @pytest.mark.parametrize(
        "path",
        [[], [Point(1, 1), Point(3, 1)], [Point(1, 1), Point(2, 1), Point(2, 3)]],
        ids=["empty", "gap-first-step", "gap-later-step"],
    )
    def test_malformed_path_raises_as_the_reference(self, path):
        with pytest.raises(ValueError) as expected:
            ReferenceLocalizer().localize(frozenset(), path)
        with pytest.raises(ValueError) as actual:
            FaultLocalizer().localize(frozenset(), path)
        assert str(actual.value) == str(expected.value)
