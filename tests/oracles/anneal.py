"""Annealing oracles: per-move delta verification and the full recompute.

The placers anneal on the incremental delta-cost path only. Two
references check it:

* :class:`CheckedCost` verifies every proposal's delta — accepted *and*
  rejected — against the full recompute ``cost(placement)`` via an
  apply/revert round trip, and checks the evaluator's running sums;
  a mismatch raises :class:`~repro.util.errors.CrossCheckError`. It
  consumes no random draws, so the anneal walks the trajectory it
  would walk unchecked. :class:`CheckedTwoStagePlacer` runs both
  stages of the fault-aware placer on checked costs.
* :class:`FullRecomputePlacer` anneals by full recompute: a new
  placement object per proposal (:meth:`FullRecomputeMoves.propose`),
  priced by ``cost(placement)`` in the generic loop of
  :meth:`FullRecomputeAnnealing.optimize`. Both consume the RNG draw
  for draw like the incremental path, so the two walk the same
  trajectory from the same seed — the baseline the incremental path
  must match move for move. The loop shares the production cooling and
  stop schedule (``SimulatedAnnealing._advance``).
"""

from __future__ import annotations

import math
from collections.abc import Callable
from typing import Any, TypeVar

from repro.placement.annealer import AnnealingStats, SimulatedAnnealing
from repro.placement.cost import require_delta
from repro.placement.model import Placement
from repro.placement.moves import MoveGenerator
from repro.placement.sa_placer import SimulatedAnnealingPlacer
from repro.placement.two_stage import TwoStagePlacer
from repro.util.errors import CrossCheckError

State = TypeVar("State")


class CheckedCost:
    """*cost* with every ``delta`` verified against the full recompute."""

    def __init__(self, cost, tolerance: float = 1e-6) -> None:
        try:
            require_delta(cost)
        except TypeError:
            raise ValueError(
                f"{type(cost).__name__} has no delta to check"
            ) from None
        self.cost = cost
        self.tolerance = tolerance

    def __getattr__(self, name):
        if name == "cost":  # not yet set (unpickling)
            raise AttributeError(name)
        return getattr(self.cost, name)

    def __call__(self, placement) -> float:
        return self.cost(placement)

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


class CheckedTwoStagePlacer(TwoStagePlacer):
    """The two-stage placer with both stages' deltas verified."""

    def stage1_cost(self):
        return CheckedCost(super().stage1_cost())

    def stage2_cost(self):
        return CheckedCost(super().stage2_cost())


class FullRecomputeAnnealing(SimulatedAnnealing):
    """The annealer with the generic full-recompute loop of Figure 3."""

    def optimize(
        self,
        initial_state: State,
        cost_fn: Callable[[State], float],
        propose_fn: Callable[[State, float], State],
        inner_iterations: int,
        record_history: bool = True,
    ) -> tuple[State, AnnealingStats]:
        """Run the annealing loop of paper Figure 3.

        ``propose_fn(state, T)`` must return a *new* state (states are
        never mutated in place by the engine). Returns the best state
        seen and the run statistics.
        """
        if inner_iterations < 1:
            raise ValueError(f"inner_iterations must be >= 1, got {inner_iterations}")
        p = self.params
        stats = AnnealingStats()
        current: Any = initial_state
        current_cost = cost_fn(current)
        best, best_cost = current, current_cost
        stats.initial_cost = current_cost

        # The inner loop runs millions of times per paper-schedule run;
        # attribute lookups hoisted to locals are a measurable win.
        rand = self._rng.random
        exp = math.exp
        acceptances = improvements = 0

        temperature = p.initial_temp
        frozen_streak = 0
        while True:
            stats.rounds += 1
            for _ in range(inner_iterations):
                candidate = propose_fn(current, temperature)
                candidate_cost = cost_fn(candidate)
                delta = candidate_cost - current_cost
                if delta < 0 or rand() < exp(-delta / temperature):
                    current, current_cost = candidate, candidate_cost
                    acceptances += 1
                    if current_cost < best_cost:
                        best, best_cost = current, current_cost
                        improvements += 1
            stats.evaluations += inner_iterations
            if record_history:
                stats.history.append((temperature, current_cost, best_cost))

            temperature, frozen_streak, keep_going = self._advance(
                stats, temperature, frozen_streak
            )
            if not keep_going:
                break

        stats.acceptances = acceptances
        stats.improvements = improvements
        stats.best_cost = best_cost
        stats.final_temp = temperature
        return best, stats


class FullRecomputeMoves(MoveGenerator):
    """The move generator proposing whole new placements."""

    def propose(self, placement: Placement, temperature: float) -> Placement:
        """Return a new placement one move away from *placement*."""
        modules = placement.modules()
        ops = [pm.op_id for pm in modules]
        propose = self._kernel(
            ops,
            [pm.x for pm in modules],
            [pm.y for pm in modules],
            [pm.rotated for pm in modules],
            [(pm.spec.dims(False), pm.spec.dims(True)) for pm in modules],
            [pm.spec.is_square for pm in modules],
            placement.core_width,
            placement.core_height,
        )
        move = propose(self.window.span(temperature))
        out = placement.copy()
        for k in range(0, len(move), 4):
            i, x, y, rotated = move[k:k + 4]
            out.replace(out.get(ops[i]).moved_to(x, y, rotated=rotated))
        return out


class FullRecomputePlacer(SimulatedAnnealingPlacer):
    """The fault-oblivious placer annealing by full recompute."""

    def _anneal(self, engine, mover, initial, inner_iterations):
        # Same schedule, window and shared random stream as the
        # production engine and generator this placer built.
        engine = FullRecomputeAnnealing(
            engine.params, window=engine.window, seed=engine._rng
        )
        mover = FullRecomputeMoves(
            mover.window,
            p_single=mover.p_single,
            p_rotate=mover.p_rotate,
            single_only=mover.single_only,
            seed=mover._rng,
            movable=mover.movable,
        )
        return engine.optimize(
            initial, self.cost, mover.propose, inner_iterations,
            record_history=self.record_history,
        )
