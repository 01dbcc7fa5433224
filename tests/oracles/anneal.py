"""Annealing oracles: per-move delta verification and the full recompute.

The placers anneal on the incremental delta-cost path whenever their
cost supports it (``cost.supports_incremental()``). Two cost wrappers
reach the paths that check it:

* :class:`CheckedCost` verifies every proposal's delta — accepted *and*
  rejected — against the full recompute ``cost(placement)`` via an
  apply/revert round trip, and checks the evaluator's running sums;
  a mismatch raises :class:`~repro.util.errors.CrossCheckError`. It
  consumes no random draws, so the anneal walks the trajectory it
  would walk unchecked.
* :class:`FullRecomputeCost` hides the delta protocol, so the placer
  falls back to the generic full-recompute annealer — the baseline
  the incremental path must match move for move.

:class:`CheckedTwoStagePlacer` runs both stages of the fault-aware
placer on checked costs.
"""

from __future__ import annotations

from repro.placement.two_stage import TwoStagePlacer
from repro.util.errors import CrossCheckError


class _CostWrapper:
    """Forwards everything but what a subclass overrides to *cost*."""

    def __init__(self, cost) -> None:
        self.cost = cost

    def __call__(self, placement) -> float:
        return self.cost(placement)

    def __getattr__(self, name):
        if name == "cost":  # not yet set (unpickling)
            raise AttributeError(name)
        return getattr(self.cost, name)


class CheckedCost(_CostWrapper):
    """*cost* with every ``delta`` verified against the full recompute."""

    def __init__(self, cost, tolerance: float = 1e-6) -> None:
        if not cost.supports_incremental():
            raise ValueError(
                f"{type(cost).__name__} has no delta to check: it anneals "
                "on the full-recompute path"
            )
        super().__init__(cost)
        self.tolerance = tolerance

    def supports_incremental(self) -> bool:
        return True

    def current(self, evaluator) -> float:
        return self.cost.current(evaluator)

    def delta(self, evaluator, move) -> float:
        delta = self.cost.delta(evaluator, move)
        tolerance = self.tolerance
        full_before = self.cost(evaluator.placement)
        inverse = evaluator.apply(move)
        full_after = self.cost(evaluator.placement)
        evaluator.check_consistency(tolerance)
        error = abs((full_after - full_before) - delta)
        evaluator.apply(inverse)
        if error > tolerance:
            raise CrossCheckError(
                f"incremental delta {delta!r} disagrees with full recompute "
                f"{full_after - full_before!r} (|error| {error:g} > {tolerance:g}) "
                f"for move {move}"
            )
        restored = self.cost(evaluator.placement)
        if abs(restored - full_before) > tolerance:
            raise CrossCheckError(
                f"apply/revert did not restore the prior cost: "
                f"{full_before!r} -> {restored!r} for move {move}"
            )
        return delta


class FullRecomputeCost(_CostWrapper):
    """*cost* without its delta protocol: anneals by full recompute."""

    def supports_incremental(self) -> bool:
        return False


class CheckedTwoStagePlacer(TwoStagePlacer):
    """The two-stage placer with both stages' deltas verified."""

    def stage1_cost(self):
        return CheckedCost(super().stage1_cost())

    def stage2_cost(self):
        return CheckedCost(super().stage2_cost())
