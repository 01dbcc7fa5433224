"""Synthetic assay generation for scaling studies.

The paper's closing argument is that biochip complexity "is expected to
grow steadily"; evaluating how the placer scales needs workloads bigger
than the 7-mix PCR tree. This module generates them:

* :func:`build_mix_tree` — balanced binary mixing trees of any leaf
  count (PCR's shape, generalized); 2^k leaves give 2^k - 1 mixes.
* :func:`random_assay` — randomized DAGs mixing mix/dilute/store/detect
  operations with controllable size and parallelism, for stress tests
  and property-based testing.
"""

from __future__ import annotations

import random

from repro.assay.graph import SequencingGraph
from repro.assay.operations import Operation, OperationType
from repro.util.rng import ensure_rng

#: Mixer spec names cycled across tree levels (all from the standard
#: library, so synthetic assays bind without custom libraries).
_MIXER_CYCLE = ("mixer-2x2", "mixer-linear-1x4", "mixer-2x3", "mixer-2x4")

#: Share of :func:`random_assay` steps that add a DETECT pass-through.
_DETECT_FRACTION = 0.15


def build_mix_tree(leaves: int) -> SequencingGraph:
    """A balanced binary mixing tree with *leaves* input mixes.

    ``leaves`` must be a power of two >= 2. ``leaves=4`` reproduces the
    PCR mixing stage's shape (7 mixes); ``leaves=16`` gives a 31-mix
    assay. Hardware hints cycle through the standard mixer library so
    the module mix resembles Table 1's.
    """
    if leaves < 2 or leaves & (leaves - 1):
        raise ValueError(f"leaves must be a power of two >= 2, got {leaves}")
    g = SequencingGraph(name=f"mix-tree-{leaves}")
    level_nodes = []
    counter = 0
    for i in range(leaves):
        counter += 1
        op = Operation(
            f"M{counter}",
            OperationType.MIX,
            label=f"leaf mix {i + 1}",
            hardware=_MIXER_CYCLE[i % len(_MIXER_CYCLE)],
        )
        g.add_operation(op)
        level_nodes.append(op.id)
    level = 0
    while len(level_nodes) > 1:
        level += 1
        next_level = []
        for i in range(0, len(level_nodes), 2):
            counter += 1
            op = Operation(
                f"M{counter}",
                OperationType.MIX,
                label=f"level-{level} mix",
                hardware=_MIXER_CYCLE[(i + level) % len(_MIXER_CYCLE)],
            )
            g.add_operation(op)
            g.add_dependency(level_nodes[i], op)
            g.add_dependency(level_nodes[i + 1], op)
            next_level.append(op.id)
        level_nodes = next_level
    g.validate()
    return g


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
