"""The structural contract of generated assays, checked from scratch.

:func:`check_invariants` is the oracle the generator properties hold
every ``gen:`` family's graphs to.
"""

from __future__ import annotations

from repro.assay.graph import SequencingGraph
from repro.assay.operations import OperationType


def check_invariants(g: SequencingGraph) -> None:
    """Assert the structural contract every generated graph honors.

    Beyond :meth:`SequencingGraph.validate` (acyclic, mixes <= 2
    producers, dispenses have none) generated graphs promise:

    * operation arity — every MIX and DILUTE consumes exactly two
      droplets, every STORE/DETECT exactly one (reagent balance: no
      droplet appears from or vanishes into nothing);
    * every source is a DISPENSE and every sink an OUTPUT (no loose
      droplets left on the array);
    * OUTPUT consumes exactly one droplet and produces none.

    Raises ``AssertionError`` with the violating operation named.
    """
    g.validate()
    arity = {
        OperationType.MIX: 2,
        OperationType.DILUTE: 2,
        OperationType.STORE: 1,
        OperationType.DETECT: 1,
        OperationType.OUTPUT: 1,
        OperationType.DISPENSE: 0,
    }
    for op in g.operations():
        indeg = len(g.predecessors(op.id))
        assert indeg == arity[op.type], (
            f"{op.id} ({op.type.value}) has {indeg} producers, "
            f"expected {arity[op.type]}"
        )
        if op.type is OperationType.OUTPUT:
            assert not g.successors(op.id), f"OUTPUT {op.id} has consumers"
    for op in g.operations():
        if not g.predecessors(op.id):
            assert op.type is OperationType.DISPENSE, (
                f"source {op.id} is not a DISPENSE"
            )
    for sink in g.sinks():
        assert g.operation(sink).type is OperationType.OUTPUT, (
            f"sink {sink} is not an OUTPUT"
        )
