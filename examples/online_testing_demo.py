#!/usr/bin/env python3
"""On-line testing demo: concurrent test campaigns around a live assay.

Demonstrates the substrate behind the paper's fault-detection
assumption (refs [13]/[14]): at every configuration-change instant of a
placed PCR assay, test droplets sweep the cells not currently used by
modules; a failing walk is bisected to the exact faulty cell.

Run:  python examples/online_testing_demo.py
"""

from repro import AnnealingParams, SimulatedAnnealingPlacer
from repro.experiments.pcr import pcr_case_study
from repro.testing.online import OnlineTester
from repro.viz.ascii_art import render_placement


def main() -> None:
    study = pcr_case_study()
    placer = SimulatedAnnealingPlacer(params=AnnealingParams.fast(), seed=2)
    placement = placer.place(study.schedule, study.binding).placement
    width, height = placement.array_dims()

    tester = OnlineTester()
    plans = tester.coverage_over_schedule(placement)

    print(f"placed PCR assay on a {width}x{height} array; planning a test")
    print(f"campaign at each of {len(plans)} configuration-change instants:")
    print()
    all_covered = set()
    for t, plan in sorted(plans.items()):
        all_covered |= plan.cells_covered
        print(f"  t={t:>4g}s: {len(plan.paths)} walk(s), "
              f"{len(plan.cells_covered)} free cells covered, "
              f"{plan.total_steps} actuation steps")
    total = width * height
    print()
    print(f"cells testable while the assay runs: {len(all_covered)}/{total} "
          f"({100 * len(all_covered) / total:.0f}%)")
    print("(cells under a module at every instant must be tested offline,")
    print(" before the assay starts — e.g. with a full snake sweep)")
    print()

    # Inject a fault on a spare cell and run the t=0 campaign.
    plan0 = plans[min(plans)]
    victim = max(plan0.cells_covered)
    outcome = tester.execute(frozenset({victim}), plan0)
    print(f"injected fault at {victim}; campaign at t=0 found: "
          f"{list(outcome.faults_found)} using {outcome.runs} droplet runs")
    print()
    print("array configuration at t=0 (test walks sweep the '.' cells):")
    print(render_placement(placement, at_time=0, legend=False))


if __name__ == "__main__":
    main()
