"""Serial dilution: exponential concentration ladders on a DMFB.

Sample preparation routinely needs a ladder of concentrations
(C, C/2, C/4, ...). On a DMFB each rung is one dilute operation: mix a
sample droplet 1:1 with buffer, split, keep one half. A serial dilution
of depth ``n`` is therefore a chain of ``n`` dilute operations, each
followed by a store (the retained aliquot) — a workload with very
different temporal structure from PCR's balanced tree, which makes it a
good stress case for the scheduler and placer.
"""

from __future__ import annotations

from repro.assay.graph import SequencingGraph
from repro.assay.operations import Operation, OperationType


def build_serial_dilution_graph(depth: int = 4) -> SequencingGraph:
    """Build a serial-dilution sequencing graph of *depth* rungs (>= 1).

    Rung *i* produces concentration ``C / 2**i``, and a store operation
    holds its retained aliquot.
    """
    if depth < 1:
        raise ValueError(f"dilution depth must be >= 1, got {depth}")
    g = SequencingGraph(name=f"serial-dilution-x{depth}")
    g.add_operation(
        Operation(
            "D-sample", OperationType.DISPENSE, label="dispense sample", duration_s=2.0
        )
    )
    prev = "D-sample"
    for i in range(1, depth + 1):
        buf = g.add_operation(
            Operation(
                f"D-buf{i}",
                OperationType.DISPENSE,
                label=f"dispense buffer {i}",
                duration_s=2.0,
            )
        )
        dil = g.add_operation(
            Operation(
                f"DIL{i}",
                OperationType.DILUTE,
                label=f"dilute to C/2^{i}",
                params={"ratio": 0.5**i},
            )
        )
        g.add_dependency(prev, dil)
        g.add_dependency(buf, dil)
        st = g.add_operation(
            Operation(
                f"ST{i}",
                OperationType.STORE,
                label=f"hold aliquot C/2^{i}",
                duration_s=4.0,
            )
        )
        g.add_dependency(dil, st)
        prev = dil.id
    out = g.add_operation(
        Operation("OUT", OperationType.OUTPUT, label="final dilution out", duration_s=1.0)
    )
    g.add_dependency(prev, out)
    g.validate()
    return g
