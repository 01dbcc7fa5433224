"""Multiplexed in-vitro diagnostics (colorimetric enzyme assays).

The paper's introduction motivates DMFBs with clinical diagnosis on
physiological fluids; Srinivasan et al. [4] demonstrated exactly that —
glucose, lactate, etc. measured on blood/serum/urine on one chip. This
builder models the standard multiplexed version: ``S`` samples times
``R`` reagents, each pair contributing a dispense-dispense-mix-detect
chain, all independent — an embarrassingly parallel workload that
stresses the placer's concurrency handling rather than its critical
path (the opposite regime from serial dilution).
"""

from __future__ import annotations

from repro.assay.graph import SequencingGraph
from repro.assay.operations import Operation, OperationType


def build_multiplexed_diagnostics_graph(
    samples: int = 2,
    reagents: int = 2,
) -> SequencingGraph:
    """Build an ``samples x reagents`` multiplexed diagnostics assay.

    Each (sample, reagent) pair yields:
    dispense sample + dispense reagent -> mix -> detect -> output.

    Parameters
    ----------
    samples, reagents:
        Grid dimensions; sample 1 might be plasma, reagent 1 glucose
        oxidase, etc.

    Every mix step requests the ``mixer-2x3`` module.
    """
    if samples < 1 or reagents < 1:
        raise ValueError(
            f"need at least one sample and one reagent, got {samples}x{reagents}"
        )
    sample_names = [f"sample{i}" for i in range(1, samples + 1)]
    reagent_names = [f"reagent{j}" for j in range(1, reagents + 1)]
    g = SequencingGraph(name=f"ivd-{samples}x{reagents}")
    for s in sample_names:
        for r in reagent_names:
            pair = f"{s}-{r}"
            ds = g.add_operation(
                Operation(
                    f"D-{pair}-s",
                    OperationType.DISPENSE,
                    label=f"dispense {s}",
                    duration_s=2.0,
                )
            )
            dr = g.add_operation(
                Operation(
                    f"D-{pair}-r",
                    OperationType.DISPENSE,
                    label=f"dispense {r}",
                    duration_s=2.0,
                )
            )
            mix = g.add_operation(
                Operation(
                    f"MIX-{pair}",
                    OperationType.MIX,
                    label=f"mix {s} with {r}",
                    hardware="mixer-2x3",
                )
            )
            g.add_dependency(ds, mix)
            g.add_dependency(dr, mix)
            det = g.add_operation(
                Operation(
                    f"DET-{pair}",
                    OperationType.DETECT,
                    label=f"read absorbance of {pair}",
                )
            )
            g.add_dependency(mix, det)
            out = g.add_operation(
                Operation(
                    f"OUT-{pair}",
                    OperationType.OUTPUT,
                    label=f"waste {pair}",
                    duration_s=1.0,
                )
            )
            g.add_dependency(det, out)
    g.validate()
    return g
