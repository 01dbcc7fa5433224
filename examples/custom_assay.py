#!/usr/bin/env python3
"""Build your own assay: a custom protein-dilution protocol from scratch.

Shows the full public API surface a new user touches: defining
operations and dependencies, extending the module library with a custom
mixer, binding by strategy, constraining the scheduler, placing with
fault awareness, and executing on the simulator.

Run:  python examples/custom_assay.py
"""

from repro import (
    ModuleKind,
    ModuleSpec,
    Operation,
    OperationType,
    SequencingGraph,
    SynthesisFlow,
    TwoStagePlacer,
    standard_library,
)
from repro.placement.annealer import AnnealingParams
from repro.sim.engine import BiochipSimulator
from repro.viz.ascii_art import render_gantt, render_placement


def build_protein_assay() -> SequencingGraph:
    """A small protein assay: dilute a sample twice, mix each dilution
    with a colorimetric reagent, detect both in parallel."""
    g = SequencingGraph(name="protein-bradford")
    g.add_operation(Operation("D-sample", OperationType.DISPENSE,
                              label="dispense serum sample", duration_s=2))
    g.add_operation(Operation("D-buf1", OperationType.DISPENSE,
                              label="dispense buffer", duration_s=2))
    g.add_operation(Operation("D-buf2", OperationType.DISPENSE,
                              label="dispense buffer", duration_s=2))
    g.add_operation(Operation("D-dye1", OperationType.DISPENSE,
                              label="dispense Bradford dye", duration_s=2))
    g.add_operation(Operation("D-dye2", OperationType.DISPENSE,
                              label="dispense Bradford dye", duration_s=2))

    g.add_operation(Operation("DIL1", OperationType.DILUTE, label="1:2 dilution"))
    g.add_dependency("D-sample", "DIL1")
    g.add_dependency("D-buf1", "DIL1")

    g.add_operation(Operation("DIL2", OperationType.DILUTE, label="1:4 dilution"))
    g.add_dependency("DIL1", "DIL2")
    g.add_dependency("D-buf2", "DIL2")

    # Each dilution reacts with dye in a custom fast mixer.
    for i in (1, 2):
        g.add_operation(Operation(f"MIX{i}", OperationType.MIX,
                                  hardware="mixer-3x3", label=f"react dilution {i}"))
        g.add_dependency(f"DIL{i}", f"MIX{i}")
        g.add_dependency(f"D-dye{i}", f"MIX{i}")
        g.add_operation(Operation(f"DET{i}", OperationType.DETECT,
                                  label=f"read A595 of dilution {i}"))
        g.add_dependency(f"MIX{i}", f"DET{i}")
        g.add_operation(Operation(f"OUT{i}", OperationType.OUTPUT,
                                  label="to waste", duration_s=1))
        g.add_dependency(f"DET{i}", f"OUT{i}")
    g.validate()
    return g


def main() -> None:
    graph = build_protein_assay()
    print(f"assay: {graph}")

    # Extend the standard library with a custom 3x3 pivot mixer.
    library = standard_library()
    library.add(ModuleSpec(
        name="mixer-3x3",
        kind=ModuleKind.MIXER,
        functional_width=3,
        functional_height=3,
        duration_s=4.5,
        hardware="3x3 electrode array (custom)",
    ))

    placer = TwoStagePlacer(beta=20.0, stage1_params=AnnealingParams.fast(), seed=3)
    flow = SynthesisFlow(library=library, placer=placer, max_concurrent_ops=4)
    result = flow.run(graph)

    print()
    print("=== schedule ===")
    print(render_gantt(result.schedule))
    print()
    print("=== placement ===")
    print(render_placement(result.placement_result.placement))
    print()
    print(result.summary())

    # Execute on the simulated chip to prove the configuration works.
    sim = BiochipSimulator(
        graph, result.schedule, result.binding, result.placement_result.placement
    )
    report = sim.run()
    assert report.completed
    print()
    print("=== simulation ===")
    print(report.summary())


if __name__ == "__main__":
    main()
