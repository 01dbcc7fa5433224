#!/usr/bin/env python3
"""On-line testing demo: concurrent test campaigns around a live assay.

Demonstrates the substrate behind the paper's fault-detection
assumption (refs [13]/[14]): at every configuration-change instant of a
placed PCR assay, test droplets sweep the cells not currently used by
modules; a failing walk is bisected to the exact faulty cell.

Run:  python examples/online_testing_demo.py
"""

import random

from repro import AnnealingParams, SimulatedAnnealingPlacer
from repro.experiments.pcr import pcr_case_study
from repro.testing import FaultLocalizer, free_cell_paths
from repro.viz.ascii_art import render_placement


def main() -> None:
    study = pcr_case_study()
    placer = SimulatedAnnealingPlacer(params=AnnealingParams.fast(), seed=2)
    placement = placer.place(study.schedule, study.binding).placement
    width, height = placement.array_dims()

    # Between consecutive configuration changes the set of active
    # modules is constant, so one campaign per change covers every cell
    # that is ever free.
    instants = [t for t in placement.event_times() if t < placement.makespan()]
    plans = {t: free_cell_paths(placement, t) for t in instants}

    print(f"placed PCR assay on a {width}x{height} array; planning a test")
    print(f"campaign at each of {len(plans)} configuration-change instants:")
    print()
    all_covered = set()
    for t, paths in sorted(plans.items()):
        covered = {cell for path in paths for cell in path}
        all_covered |= covered
        print(f"  t={t:>4g}s: {len(paths)} walk(s), "
              f"{len(covered)} free cells covered, "
              f"{sum(len(path) for path in paths)} actuation steps")
    total = width * height
    print()
    print(f"cells testable while the assay runs: {len(all_covered)}/{total} "
          f"({100 * len(all_covered) / total:.0f}%)")
    print("(cells under a module at every instant must be tested offline,")
    print(" before the assay starts — e.g. with a full snake sweep)")
    print()

    # Inject a fault on a spare cell and run the t=0 campaign: every
    # walk is localized, a failing one bisected to its faulty cell.
    paths0 = plans[min(plans)]
    victim = max(cell for path in paths0 for cell in path)
    localizer = FaultLocalizer()
    rng = random.Random(0)  # the ideal sensor never draws from it
    found, runs = [], 0
    for path in paths0:
        result = localizer.localize(frozenset({victim}), path, rng)
        runs += result.runs
        if result.fault_found:
            found.append(result.faulty_cell)
    print(f"injected fault at {victim}; campaign at t=0 found: "
          f"{found} using {runs} droplet runs")
    print()
    print("array configuration at t=0 (test walks sweep the '.' cells):")
    print(render_placement(placement, at_time=0, legend=False))


if __name__ == "__main__":
    main()
