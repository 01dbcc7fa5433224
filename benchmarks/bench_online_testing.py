"""On-line testing substrate benchmark (paper refs [13]/[14]).

Times the two halves of the detect-and-localize campaign the paper's
fault model assumes, on one SA placement of the PCR assay:

* planning: concurrent test walks over the free cells at every instant
  the closed loop probes (each configuration change and the
  ``makespan / 8`` grid, plus ``t = 0``), on the bounding array; every
  plan must equal the ``Point``-set reference planner's;
* executing: the walks at ``t = 0`` on a chip with one dead cell,
  pinpointing the faulty cell by bisection.

CI runs this file under ``REPRO_BENCH_FAST=1``; the file has no
separate fast mode.
"""

import pytest
from oracles import reference_free_cell_paths

from repro.testing.online import OnlineTester
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
    tester = OnlineTester()
    width, height = placement.array_dims()
    instants = _probe_instants(placement)

    def plan_all():
        return [
            tester.plan(placement, t, width=width, height=height) for t in instants
        ]

    plans = benchmark(plan_all)

    for plan in plans:
        assert [list(p) for p in plan.paths] == reference_free_cell_paths(
            placement, plan.at_time, width=width, height=height
        ), plan.at_time
    report(
        "On-line test planning (ref [14])",
        format_table(
            ("metric", "value"),
            [
                ("array", f"{width}x{height}"),
                ("probe instants planned", len(plans)),
                ("test walks", sum(len(plan.paths) for plan in plans)),
                ("walk steps total", sum(plan.total_steps for plan in plans)),
            ],
        ),
    )


def test_online_testing_campaign(benchmark, report, placement):
    tester = OnlineTester()
    plan = tester.plan(placement, at_time=0.0)
    fault = max(plan.cells_covered)  # a free cell the campaign must find

    def campaign():
        return tester.execute(frozenset({fault}), plan)

    outcome = benchmark(campaign)

    assert fault in outcome.faults_found
    report(
        "On-line testing (refs [13]/[14])",
        format_table(
            ("metric", "value"),
            [
                ("free cells covered at t=0", len(plan.cells_covered)),
                ("test walks", len(plan.paths)),
                ("walk steps total", plan.total_steps),
                ("droplet dispenses incl. localization", outcome.runs),
                ("fault localized", str(outcome.faults_found[0])),
            ],
        ),
    )
