"""Sequencing graphs: the behavioral model of a bioassay.

A :class:`SequencingGraph` is a DAG whose nodes are
:class:`~repro.assay.operations.Operation` objects and whose edges are
droplet dependencies: an edge ``u -> v`` means an output droplet of
``u`` is an input of ``v`` (paper Figure 5). The graph is backed by
:mod:`networkx` so downstream analyses (critical path, topological
levels, graph export) reuse mature algorithms.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping

import networkx as nx

from repro.assay.operations import Operation, OperationType
from repro.util.errors import ScheduleError


class SequencingGraph:
    """DAG of assay operations with droplet-dependency edges."""

    def __init__(self, name: str = "assay") -> None:
        self.name = name
        self._g = nx.DiGraph()
        self._ops: dict[str, Operation] = {}

    # -- construction ------------------------------------------------------------

    def add_operation(self, op: Operation) -> Operation:
        """Add a node; ids must be unique."""
        if op.id in self._ops:
            raise ValueError(f"duplicate operation id {op.id!r}")
        self._ops[op.id] = op
        self._g.add_node(op.id)
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
        if nx.has_path(self._g, v, u):
            raise ValueError(f"dependency {u} -> {v} would create a cycle")
        self._g.add_edge(u, v)

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
        return sorted(self._g.predecessors(op_id))

    def successors(self, op_id: str) -> list[str]:
        """Immediate consumers of *op_id*'s droplet(s)."""
        return sorted(self._g.successors(op_id))

    def edges(self) -> list[tuple[str, str]]:
        """All dependency edges."""
        return sorted(self._g.edges())

    def sinks(self) -> list[str]:
        """Operations with no consumers (assay outputs)."""
        return sorted(n for n in self._g.nodes if self._g.out_degree(n) == 0)

    def topological_order(self) -> list[str]:
        """A topological ordering (deterministic: lexicographic tie-break)."""
        return list(nx.lexicographical_topological_sort(self._g))

    def levels(self) -> dict[str, int]:
        """Longest-path depth of each node from the sources (0-based)."""
        order = self.topological_order()
        depth = {n: 0 for n in order}
        for n in order:
            for m in self._g.successors(n):
                depth[m] = max(depth[m], depth[n] + 1)
        return depth

    def critical_path(self, durations: Mapping[str, float]) -> list[str]:
        """One longest start-to-finish chain of operation ids."""
        self.validate()
        finish: dict[str, float] = {}
        best_pred: dict[str, str | None] = {}
        for n in self.topological_order():
            preds = list(self._g.predecessors(n))
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
        if not nx.is_directed_acyclic_graph(self._g):
            raise ScheduleError(f"sequencing graph {self.name!r} has a cycle")
        for op in self._ops.values():
            indeg = self._g.in_degree(op.id)
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
            f"{self._g.number_of_edges()} deps)"
        )
