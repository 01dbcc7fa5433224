"""Sequencing graphs: the behavioral model of a bioassay.

A :class:`SequencingGraph` is a DAG whose nodes are
:class:`~repro.assay.operations.Operation` objects and whose edges are
droplet dependencies: an edge ``u -> v`` means an output droplet of
``u`` is an input of ``v`` (paper Figure 5). The graph is two
insertion-ordered adjacency dicts, successors and predecessors, each
mapping a node id to ``{neighbour: None}``; a sequencing graph is small,
and its analyses (cycle check, lexicographic topological order,
critical path) are a few lines of search over them.
"""

from __future__ import annotations

import heapq
from collections.abc import Iterable, Iterator, Mapping

from repro.assay.operations import Operation, OperationType
from repro.util.errors import ScheduleError


class SequencingGraph:
    """DAG of assay operations with droplet-dependency edges."""

    def __init__(self, name: str = "assay") -> None:
        self.name = name
        self._ops: dict[str, Operation] = {}
        # Adjacency in insertion order; critical_path's tie-break reads
        # the order in which a node's predecessors were added.
        self._succ: dict[str, dict[str, None]] = {}
        self._pred: dict[str, dict[str, None]] = {}

    # -- construction ------------------------------------------------------------

    def add_operation(self, op: Operation) -> Operation:
        """Add a node; ids must be unique."""
        if op.id in self._ops:
            raise ValueError(f"duplicate operation id {op.id!r}")
        self._ops[op.id] = op
        self._succ[op.id] = {}
        self._pred[op.id] = {}
        return op

    def add_dependency(self, producer: str | Operation, consumer: str | Operation) -> None:
        """Add edge producer -> consumer; both ends must exist, no cycles."""
        u = producer.id if isinstance(producer, Operation) else producer
        v = consumer.id if isinstance(consumer, Operation) else consumer
        for node in (u, v):
            if node not in self._ops:
                raise KeyError(f"unknown operation id {node!r}")
        if u == v:
            raise ValueError(f"self-dependency on {u!r}")
        # The edge closes a cycle iff the consumer already reaches the
        # producer: a search from v alone, not a whole-graph check.
        if self._reaches(v, u):
            raise ValueError(f"dependency {u} -> {v} would create a cycle")
        # Re-adding an existing edge keeps its place: a no-op.
        self._succ[u][v] = None
        self._pred[v][u] = None

    def _reaches(self, source: str, target: str) -> bool:
        """True iff a path of dependencies leads from *source* to *target*."""
        seen = {source}
        stack = [source]
        while stack:
            for m in self._succ[stack.pop()]:
                if m == target:
                    return True
                if m not in seen:
                    seen.add(m)
                    stack.append(m)
        return False

    def mix(self, op_id: str, inputs: Iterable[str | Operation], **kwargs) -> Operation:
        """Convenience: add a MIX node consuming *inputs*."""
        op = self.add_operation(Operation(op_id, OperationType.MIX, **kwargs))
        for src in inputs:
            self.add_dependency(src, op)
        return op

    # -- node access ---------------------------------------------------------------

    def operation(self, op_id: str) -> Operation:
        """Look up a node by id."""
        try:
            return self._ops[op_id]
        except KeyError:
            raise KeyError(f"unknown operation id {op_id!r}") from None

    def operations(self) -> list[Operation]:
        """All operations, in insertion order."""
        return list(self._ops.values())

    def reconfigurable_operations(self) -> list[Operation]:
        """Operations that need a placed module (mix/dilute/store/detect)."""
        return [op for op in self._ops.values() if op.type.is_reconfigurable]

    def __len__(self) -> int:
        return len(self._ops)

    def __contains__(self, op_id: str) -> bool:
        return op_id in self._ops

    def __iter__(self) -> Iterator[Operation]:
        return iter(self._ops.values())

    # -- structure queries ------------------------------------------------------------

    def predecessors(self, op_id: str) -> list[str]:
        """Immediate producers feeding *op_id*."""
        return sorted(self._pred[op_id])

    def successors(self, op_id: str) -> list[str]:
        """Immediate consumers of *op_id*'s droplet(s)."""
        return sorted(self._succ[op_id])

    def edges(self) -> list[tuple[str, str]]:
        """All dependency edges."""
        return sorted((u, v) for u, vs in self._succ.items() for v in vs)

    def sinks(self) -> list[str]:
        """Operations with no consumers (assay outputs)."""
        return sorted(n for n, vs in self._succ.items() if not vs)

    def topological_order(self) -> list[str]:
        """A topological ordering (deterministic: lexicographic tie-break).

        Kahn's algorithm with a min-heap of ready ids. Raises
        ``ScheduleError`` if the graph has a cycle (the order comes out
        short).
        """
        indeg = {n: len(ps) for n, ps in self._pred.items()}
        ready = [n for n, d in indeg.items() if d == 0]
        heapq.heapify(ready)
        order = []
        while ready:
            n = heapq.heappop(ready)
            order.append(n)
            for m in self._succ[n]:
                indeg[m] -= 1
                if indeg[m] == 0:
                    heapq.heappush(ready, m)
        if len(order) < len(indeg):
            raise ScheduleError(f"sequencing graph {self.name!r} has a cycle")
        return order

    def levels(self) -> dict[str, int]:
        """Longest-path depth of each node from the sources (0-based)."""
        order = self.topological_order()
        depth = {n: 0 for n in order}
        for n in order:
            for m in self._succ[n]:
                depth[m] = max(depth[m], depth[n] + 1)
        return depth

    def critical_path(self, durations: Mapping[str, float]) -> list[str]:
        """One longest start-to-finish chain of operation ids."""
        self.validate()
        finish: dict[str, float] = {}
        best_pred: dict[str, str | None] = {}
        for n in self.topological_order():
            preds = self._pred[n]
            if preds:
                p = max(preds, key=lambda q: finish[q])
                finish[n] = finish[p] + durations[n]
                best_pred[n] = p
            else:
                finish[n] = durations[n]
                best_pred[n] = None
        if not finish:
            return []
        node: str | None = max(finish, key=lambda q: finish[q])
        path = []
        while node is not None:
            path.append(node)
            node = best_pred[node]
        return list(reversed(path))

    # -- validation ----------------------------------------------------------------------

    def validate(self) -> None:
        """Check the graph is a sane assay model.

        Raises ``ScheduleError`` if it has a cycle or if a MIX node has
        more than two producers (a mixer merges exactly two droplets;
        multi-way mixes must be decomposed into a tree, as in PCR).
        """
        self.topological_order()  # raises on a cycle
        for op in self._ops.values():
            indeg = len(self._pred[op.id])
            if op.type is OperationType.MIX and indeg > 2:
                raise ScheduleError(
                    f"mix operation {op.id!r} has {indeg} inputs; "
                    "decompose multi-way mixes into a binary tree"
                )
            if op.type is OperationType.DISPENSE and indeg > 0:
                raise ScheduleError(
                    f"dispense operation {op.id!r} cannot have producers"
                )

    def __str__(self) -> str:
        return (
            f"SequencingGraph({self.name!r}, {len(self._ops)} ops, "
            f"{sum(map(len, self._succ.values()))} deps)"
        )
