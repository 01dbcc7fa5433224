"""The networkx-backed sequencing graph, beside the dict-backed one.

:class:`ReferenceSequencingGraph` is the structure half of
:class:`repro.assay.graph.SequencingGraph` as it stood on an
``nx.DiGraph``: the cycle check is ``nx.has_path``, the order is
``nx.lexicographical_topological_sort``, and ``critical_path`` breaks
ties by networkx's predecessor order (edge insertion order).
``tests/test_assay_graph.py`` builds the same random DAGs through both
and requires every query to agree.
"""

from __future__ import annotations

from collections.abc import Mapping

import networkx as nx

from repro.assay.operations import Operation, OperationType
from repro.util.errors import ScheduleError


class ReferenceSequencingGraph:
    """DAG of assay operations on an ``nx.DiGraph``."""

    def __init__(self, name: str = "assay") -> None:
        self.name = name
        self._g = nx.DiGraph()
        self._ops: dict[str, Operation] = {}

    def add_operation(self, op: Operation) -> Operation:
        if op.id in self._ops:
            raise ValueError(f"duplicate operation id {op.id!r}")
        self._ops[op.id] = op
        self._g.add_node(op.id)
        return op

    def add_dependency(self, producer: str, consumer: str) -> None:
        u, v = producer, consumer
        for node in (u, v):
            if node not in self._ops:
                raise KeyError(f"unknown operation id {node!r}")
        if u == v:
            raise ValueError(f"self-dependency on {u!r}")
        if nx.has_path(self._g, v, u):
            raise ValueError(f"dependency {u} -> {v} would create a cycle")
        self._g.add_edge(u, v)

    def predecessors(self, op_id: str) -> list[str]:
        return sorted(self._g.predecessors(op_id))

    def successors(self, op_id: str) -> list[str]:
        return sorted(self._g.successors(op_id))

    def edges(self) -> list[tuple[str, str]]:
        return sorted(self._g.edges())

    def sinks(self) -> list[str]:
        return sorted(n for n in self._g.nodes if self._g.out_degree(n) == 0)

    def topological_order(self) -> list[str]:
        return list(nx.lexicographical_topological_sort(self._g))

    def levels(self) -> dict[str, int]:
        order = self.topological_order()
        depth = {n: 0 for n in order}
        for n in order:
            for m in self._g.successors(n):
                depth[m] = max(depth[m], depth[n] + 1)
        return depth

    def critical_path(self, durations: Mapping[str, float]) -> list[str]:
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

    def validate(self) -> None:
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
