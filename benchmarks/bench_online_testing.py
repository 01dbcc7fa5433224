"""On-line testing substrate benchmark (paper refs [13]/[14]).

Times the full detect-and-localize campaign the paper's fault model
assumes: plan concurrent test walks over the free cells of a running
placement, execute them on a chip with one dead cell, and pinpoint the
faulty cell by bisection.
"""

from repro.testing.online import OnlineTester
from repro.util.tables import format_table


def test_online_testing_campaign(benchmark, report):
    from repro.experiments.pcr import pcr_case_study
    from repro.placement.annealer import AnnealingParams
    from repro.placement.sa_placer import SimulatedAnnealingPlacer

    study = pcr_case_study()
    placer = SimulatedAnnealingPlacer(params=AnnealingParams.fast(), seed=2)
    placement = placer.place(study.schedule, study.binding).placement
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
