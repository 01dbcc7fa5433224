#!/usr/bin/env python3
"""Fault recovery demo: kill a cell mid-assay and watch the chip adapt.

This is the scenario the paper's title promises: during the PCR run a
cell under the long-running M6 mixer fails. The on-line test substrate
localizes it, partial reconfiguration relocates M6 to fault-free spare
cells, the droplets migrate, and the assay completes — a few seconds
late but chemically intact.

Run:  python examples/pcr_fault_recovery.py
"""

from repro import AnnealingParams, SimulatedAnnealingPlacer
from repro.experiments.pcr import pcr_case_study
from repro.sim.engine import BiochipSimulator
from repro.testing.localize import FaultLocalizer
from repro.testing.test_droplet import snake_path
from repro.viz.ascii_art import render_placement

FAULT_TIME_S = 8.0


def main() -> None:
    study = pcr_case_study()
    placer = SimulatedAnnealingPlacer(params=AnnealingParams.fast(), seed=2)
    placement = placer.place(study.schedule, study.binding).placement

    sim = BiochipSimulator(study.graph, study.schedule, study.binding, placement)
    victim = sim.module_cell("M6")

    # --- how the controller would find the fault (refs [13]/[14]) -----
    localization = FaultLocalizer().localize(
        frozenset({victim}), snake_path(sim.width, sim.height)
    )
    print(f"test substrate: fault localized at {localization.faulty_cell} "
          f"in {localization.runs} test-droplet runs")
    assert localization.faulty_cell == victim
    print()

    # --- nominal run ---------------------------------------------------
    nominal = BiochipSimulator(
        study.graph, study.schedule, study.binding, placement
    ).run()
    assert nominal.completed
    print("=== nominal run ===")
    print(nominal.summary())
    print()

    # --- faulted run ----------------------------------------------------
    report = sim.run(faults=[(FAULT_TIME_S, victim)])
    print(f"=== run with cell {victim} failing at t={FAULT_TIME_S:g}s ===")
    print(report.summary())
    print()
    print("event log (faults and relocations):")
    for event in report.events:
        if event.kind in ("fault", "relocation"):
            print(f"  {event}")
    print()
    print("placement after reconfiguration:")
    print(render_placement(report.final_placement, legend=False))
    print()
    assert report.completed and report.product is not None
    print(f"product intact: {sorted(report.product.reagents)}")
    print(f"recovery cost: {report.delay_s:.2f} s of extra makespan")


if __name__ == "__main__":
    main()
