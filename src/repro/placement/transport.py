"""Transport-aware placement cost (extension).

The paper's placer optimizes area and fault tolerance; its successors
(routing-aware placement) also penalize the droplet transport the
placement induces — products must physically travel from producer
modules to consumer modules, and long hauls cost assay time and raise
cross-contamination risk. This cost extends :class:`AreaCost` with
exactly that term:

``cost = AreaCost + transport_weight * sum over dependency edges of
Manhattan distance between the producer's and consumer's functional
centers``

The dependency edges come from the sequencing graph, so the cost is
constructed *per assay*. The A-transport ablation benchmark quantifies
the area/transport trade on PCR.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.placement.cost import AreaCost

if TYPE_CHECKING:
    from repro.assay.graph import SequencingGraph
    from repro.placement.incremental import IncrementalCostEvaluator
    from repro.placement.model import Placement

#: Default weight per cell of producer->consumer distance, in mm^2
#: equivalents. At 0.15, shaving ~15 cells of total transport is worth
#: one array cell of area — mild, so area still dominates.
DEFAULT_TRANSPORT_WEIGHT = 0.15


class TransportAwareCost(AreaCost):
    """Area + overlap + droplet-transport distance."""

    def __init__(
        self,
        graph: "SequencingGraph",
        transport_weight: float = DEFAULT_TRANSPORT_WEIGHT,
    ) -> None:
        super().__init__()
        if transport_weight < 0:
            raise ValueError(
                f"transport_weight must be >= 0, got {transport_weight}"
            )
        self.transport_weight = transport_weight
        #: Dependency edges between *placed* operations only — dispense
        #: and output happen at boundary ports, which the placer does
        #: not position.
        self._edges = graph.edges()

    def transport_distance(self, placement: "Placement") -> int:
        """Total Manhattan producer->consumer distance over the edges
        whose endpoints are both placed."""
        total = 0
        for producer, consumer in self._edges:
            if producer not in placement or consumer not in placement:
                continue
            a = placement.get(producer).functional_region.center
            b = placement.get(consumer).functional_region.center
            total += a.manhattan_distance(b)
        return total

    def __call__(self, placement: "Placement") -> float:
        return (
            super().__call__(placement)
            + self.transport_weight * self.transport_distance(placement)
        )

    # -- incremental protocol -----------------------------------------------------

    def _bound(self, evaluator: "IncrementalCostEvaluator") -> tuple:
        """The edges and functional-center offsets by module index,
        built once per evaluator: ``(edges, incident, offsets)``."""
        bound = evaluator.bound.get(self)
        if bound is not None:
            return bound
        index = evaluator.index
        edges = [
            (index[producer], index[consumer])
            for producer, consumer in self._edges
            if producer in index and consumer in index
        ]
        incident: list[list[int]] = [[] for _ in evaluator.ops]
        for e, (a, b) in enumerate(edges):
            incident[a].append(e)
            incident[b].append(e)
        # Functional center = origin + a per-orientation offset.
        offsets = []
        for spec in evaluator.specs:
            normal = spec.functional_at(0, 0, False).center
            rotated = spec.functional_at(0, 0, True).center
            offsets.append(((normal.x, normal.y), (rotated.x, rotated.y)))
        bound = evaluator.bound[self] = (edges, incident, offsets)
        return bound

    def _distance(self, evaluator: "IncrementalCostEvaluator") -> int:
        edges, _, offsets = self._bound(evaluator)
        x1, y1, rot = evaluator.x1, evaluator.y1, evaluator.rot
        total = 0
        for a, b in edges:
            ax, ay = offsets[a][rot[a]]
            bx, by = offsets[b][rot[b]]
            total += abs(x1[a] + ax - x1[b] - bx) + abs(y1[a] + ay - y1[b] - by)
        return total

    def current(self, evaluator: "IncrementalCostEvaluator") -> float:
        return super().current(evaluator) + self.transport_weight * (
            self._distance(evaluator)
        )

    def delta(self, evaluator: "IncrementalCostEvaluator", move: tuple) -> float:
        d = super().delta(evaluator, move)
        if not self.transport_weight:
            return d
        edges, incident, offsets = self._bound(evaluator)
        x1, y1, rot = evaluator.x1, evaluator.y1, evaluator.rot
        moved = {move[k]: move[k + 1:k + 4] for k in range(0, len(move), 4)}

        def centers(i: int) -> tuple[tuple[int, int], tuple[int, int]]:
            """Module *i*'s functional center before and after *move*."""
            ox, oy = offsets[i][rot[i]]
            before = (x1[i] + ox, y1[i] + oy)
            if i not in moved:
                return before, before
            x, y, r = moved[i]
            ox, oy = offsets[i][r]
            return before, (x + ox, y + oy)

        d_dist = 0
        for e in {e for i in moved for e in incident[i]}:
            a, b = edges[e]
            (a_old, a_new), (b_old, b_new) = centers(a), centers(b)
            d_dist += abs(a_new[0] - b_new[0]) + abs(a_new[1] - b_new[1])
            d_dist -= abs(a_old[0] - b_old[0]) + abs(a_old[1] - b_old[1])
        return d + self.transport_weight * d_dist
