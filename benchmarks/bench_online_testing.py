"""On-line testing substrate benchmark (paper refs [13]/[14]).

Times the two halves of the detect-and-localize campaign the paper's
fault model assumes, on one SA placement of the PCR assay:

* planning: concurrent test walks over the free cells at every instant
  the closed loop probes (each configuration change and the
  ``makespan / 8`` grid, plus ``t = 0``), on the bounding array; every
  plan must equal the ``Point``-set reference planner's;
* executing: the walks at ``t = 0`` on a chip with one dead cell,
  each localized by bisection under the ideal sensor, pinpointing the
  faulty cell.

CI runs this file under ``REPRO_BENCH_FAST=1``; the file has no
separate fast mode.
"""

import random

import pytest
from oracles import reference_free_cell_paths

from repro.testing import FaultLocalizer, free_cell_paths
from repro.util.tables import format_table


@pytest.fixture(scope="module")
def placement():
    from repro.experiments.pcr import pcr_case_study
    from repro.placement.annealer import AnnealingParams
    from repro.placement.sa_placer import SimulatedAnnealingPlacer

    study = pcr_case_study()
    placer = SimulatedAnnealingPlacer(params=AnnealingParams.fast(), seed=2)
    return placer.place(study.schedule, study.binding).placement


def _probe_instants(placement) -> list[float]:
    makespan = placement.makespan()
    instants = {t for t in placement.event_times() if t < makespan}
    instants.update(k * makespan / 8 for k in range(8))
    return sorted(instants)


def test_online_testing_plans(benchmark, report, placement):
    width, height = placement.array_dims()
    instants = _probe_instants(placement)

    def plan_all():
        return [
            free_cell_paths(placement, t, width=width, height=height)
            for t in instants
        ]

    plans = benchmark(plan_all)

    for t, paths in zip(instants, plans):
        assert paths == reference_free_cell_paths(
            placement, t, width=width, height=height
        ), t
    report(
        "On-line test planning (ref [14])",
        format_table(
            ("metric", "value"),
            [
                ("array", f"{width}x{height}"),
                ("probe instants planned", len(plans)),
                ("test walks", sum(len(paths) for paths in plans)),
                ("walk steps total",
                 sum(len(path) for paths in plans for path in paths)),
            ],
        ),
    )


def test_online_testing_campaign(benchmark, report, placement):
    localizer = FaultLocalizer()
    paths = free_cell_paths(placement, at_time=0.0)
    covered = {cell for path in paths for cell in path}
    fault = max(covered)  # a free cell the campaign must find

    def campaign():
        rng = random.Random(0)  # the ideal sensor never draws from it
        return [
            localizer.localize(frozenset({fault}), path, rng) for path in paths
        ]

    results = benchmark(campaign)

    found = [r.faulty_cell for r in results if r.fault_found]
    assert found == [fault]
    report(
        "On-line testing (refs [13]/[14])",
        format_table(
            ("metric", "value"),
            [
                ("free cells covered at t=0", len(covered)),
                ("test walks", len(paths)),
                ("walk steps total", sum(len(path) for path in paths)),
                ("droplet dispenses incl. localization",
                 sum(r.runs for r in results)),
                ("fault localized", str(found[0])),
            ],
        ),
    )
