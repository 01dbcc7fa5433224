"""Concurrent droplet-routing synthesis (the flow's fourth stage).

``repro.routing`` turns a placed, scheduled assay into a time-annotated
:class:`RoutingPlan`: every droplet-dependency edge becomes a net, nets
released at the same schedule instant are routed *concurrently* by
prioritized time-expanded A* over a :class:`TimeGrid` of per-timestep
obstacles, a compaction post-pass squeezes out avoidable stalls, and
the plan's verifier proves the result conflict-free. The simulator can
replay a plan instead of routing each droplet alone.

The engine is packed: flat integer cell indices, per-cell static byte
masks, and flat reservation dicts with O(path) reserve and incremental
rip-up negotiation. The test suite keeps the original Point-dict
engine as its equivalence oracle (``tests/oracles/``).
"""

from repro.routing.compact import CompactionReport, NetImprovement, compact_routes
from repro.routing.plan import Net, RoutedNet, RoutingEpoch, RoutingPlan, chebyshev
from repro.routing.prioritized import PrioritizedRouter
from repro.routing.synthesis import RoutingSynthesizer
from repro.routing.timegrid import TimeGrid

__all__ = [
    "CompactionReport",
    "Net",
    "NetImprovement",
    "PrioritizedRouter",
    "RoutedNet",
    "RoutingEpoch",
    "RoutingPlan",
    "RoutingSynthesizer",
    "TimeGrid",
    "chebyshev",
    "compact_routes",
]
