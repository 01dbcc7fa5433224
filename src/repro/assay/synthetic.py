"""Synthetic assay generation for scaling studies.

The paper's closing argument is that biochip complexity "is expected to
grow steadily"; evaluating how the placer scales needs workloads bigger
than the 7-mix PCR tree. This module generates them:

:func:`build_mix_tree` builds balanced binary mixing trees of any leaf
count (PCR's shape, generalized); 2^k leaves give 2^k - 1 mixes.
"""

from __future__ import annotations

from repro.assay.graph import SequencingGraph
from repro.assay.operations import Operation, OperationType

#: Mixer spec names cycled across tree levels and generated mixes (all
#: from the standard library, so synthetic and generated assays bind
#: without custom libraries).
MIXER_CYCLE = ("mixer-2x2", "mixer-linear-1x4", "mixer-2x3", "mixer-2x4")


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
            hardware=MIXER_CYCLE[i % len(MIXER_CYCLE)],
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
                hardware=MIXER_CYCLE[(i + level) % len(MIXER_CYCLE)],
            )
            g.add_operation(op)
            g.add_dependency(level_nodes[i], op)
            g.add_dependency(level_nodes[i + 1], op)
            next_level.append(op.id)
        level_nodes = next_level
    g.validate()
    return g
