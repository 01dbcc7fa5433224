"""Assay generators the tests use as inputs.

* :func:`random_assay` — random, valid assay DAGs mixing
  mix/store/detect operations, for the integration properties;
* :func:`build_pcr_full_graph` — the PCR mixing stage with its eight
  dispenses and a final output, for the simulator's end-to-end run.
"""

from __future__ import annotations

import random

from repro.assay.graph import SequencingGraph
from repro.assay.operations import Operation, OperationType
from repro.assay.protocols.pcr import PCR_REAGENTS, build_pcr_mixing_graph
from repro.util.rng import ensure_rng

#: Mixer spec names cycled over the random mixes (all from the standard
#: library, so random assays bind without custom libraries).
_MIXER_CYCLE = ("mixer-2x2", "mixer-linear-1x4", "mixer-2x3", "mixer-2x4")

#: Share of :func:`random_assay` steps that add a DETECT pass-through.
_DETECT_FRACTION = 0.15


def random_assay(
    operations: int = 12,
    seed: int | random.Random | None = None,
    store_fraction: float = 0.2,
) -> SequencingGraph:
    """A random, valid assay DAG of roughly *operations* nodes.

    Construction maintains a droplet frontier: each new MIX consumes two
    frontier droplets (or dispenses fresh reagents), STORE/DETECT pass
    one droplet through. The result always validates: it is acyclic,
    every mix has at most two producers, and there is at least one mix.
    """
    if operations < 1:
        raise ValueError(f"operations must be >= 1, got {operations}")
    if not 0 <= store_fraction <= 1:
        raise ValueError("fractions must lie in [0, 1]")
    rng = ensure_rng(seed)
    g = SequencingGraph(name=f"random-assay-{operations}")
    frontier: list[str] = []
    counter = 0

    def fresh_id(prefix: str) -> str:
        nonlocal counter
        counter += 1
        return f"{prefix}{counter}"

    # Seed the frontier with two dispensed reagents.
    for _ in range(2):
        op = Operation(
            fresh_id("D"), OperationType.DISPENSE, duration_s=2.0
        )
        g.add_operation(op)
        frontier.append(op.id)

    made = 0
    while made < operations:
        roll = rng.random()
        if roll < store_fraction and frontier:
            src = rng.choice(frontier)
            op = Operation(fresh_id("ST"), OperationType.STORE, duration_s=3.0)
            g.add_operation(op)
            g.add_dependency(src, op)
            frontier.remove(src)
            frontier.append(op.id)
        elif roll < store_fraction + _DETECT_FRACTION and frontier:
            src = rng.choice(frontier)
            op = Operation(fresh_id("DET"), OperationType.DETECT)
            g.add_operation(op)
            g.add_dependency(src, op)
            frontier.remove(src)
            frontier.append(op.id)
        else:
            # MIX: take two droplets; dispense fresh ones if short.
            while len(frontier) < 2:
                d = Operation(fresh_id("D"), OperationType.DISPENSE, duration_s=2.0)
                g.add_operation(d)
                frontier.append(d.id)
            a, b = rng.sample(frontier, 2)
            op = Operation(
                fresh_id("MIX"),
                OperationType.MIX,
                hardware=_MIXER_CYCLE[made % len(_MIXER_CYCLE)],
            )
            g.add_operation(op)
            g.add_dependency(a, op)
            g.add_dependency(b, op)
            frontier.remove(a)
            frontier.remove(b)
            frontier.append(op.id)
        made += 1

    # Route every loose droplet to an output so the assay terminates.
    for src in frontier:
        out = Operation(fresh_id("OUT"), OperationType.OUTPUT, duration_s=1.0)
        g.add_operation(out)
        g.add_dependency(src, out)
    g.validate()
    return g


def build_pcr_full_graph() -> SequencingGraph:
    """PCR mixing stage with dispense inputs and a final output step.

    The droplet-level simulator runs it end to end: eight
    dispense operations feed the four leaf mixes and the final product
    is routed to an output port.
    """
    g = build_pcr_mixing_graph()
    leaf_ids = ("M1", "M2", "M3", "M4")
    for leaf, (left, right) in zip(leaf_ids, PCR_REAGENTS):
        for reagent in (left, right):
            d = g.add_operation(
                Operation(
                    f"D-{reagent}",
                    OperationType.DISPENSE,
                    label=f"dispense {reagent}",
                    duration_s=2.0,
                    params={"reagent": reagent},
                )
            )
            g.add_dependency(d, leaf)
    out = g.add_operation(
        Operation(
            "OUT",
            OperationType.OUTPUT,
            label="PCR master mix to thermocycling",
            duration_s=1.0,
        )
    )
    g.add_dependency("M7", out)
    g.validate()
    return g
