"""Cost metrics for the placement annealer (paper Sections 4(e), 6.2).

Stage 1 (fault-oblivious) minimizes bounding-array area plus an overlap
penalty — the paper's direct-coordinate annealer explores infeasible
placements and relies on the penalty to drive overlaps to zero.

Stage 2 (fault-aware, LTSA) adds the fault-tolerance term: the paper
weighs area against the "fault-tolerance number" with designer knob
beta, ``cost = alpha * area - beta * ft``. We use the *normalized* FTI
for the ft term (scaled by a calibration constant GAMMA) so that
growing the array with idle-but-covered cells is not a free lunch; see
DESIGN.md for the calibration argument that puts the paper's knob range
beta in [10, 60] across the area/FTI knee.

Every cost here speaks two protocols:

* the full recompute, ``cost(placement) -> float``, for one-off
  evaluation and as the cross-check reference of the test suite;
* the incremental protocol, ``cost.current(evaluator)`` and
  ``cost.delta(evaluator, move)``, which combine the component deltas
  of an :class:`~repro.placement.incremental.IncrementalCostEvaluator`
  into this cost's objective so a proposal (a move tuple over module
  indices) is priced in O(time-neighbors) instead of O(n^2). A cost
  with terms beyond the evaluator's components binds them to the
  evaluator's per-index data once per evaluator, never per proposal.

The annealer prices proposals by ``delta`` alone, so a subclass that
overrides ``__call__`` without a matching ``delta`` would optimize the
wrong objective; :func:`require_delta` rejects such a cost with
:class:`TypeError` when a placer is built with it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.fault.fti import FTIReport, compute_fti
from repro.placement.model import Placement

if TYPE_CHECKING:
    from repro.placement.incremental import IncrementalCostEvaluator

#: Calibration constant mapping normalized FTI into mm^2-comparable
#: units so that beta in [10, 60] spans the area/fault-tolerance knee.
DEFAULT_FT_GAMMA = 2.0

#: Penalty weight per overlapping cell-second. Large enough that any
#: overlap dominates plausible area savings once the annealer cools.
DEFAULT_OVERLAP_WEIGHT = 25.0

#: Weight of the corner-pull tiebreaker (see AreaCost). Small enough
#: that it never trades against a whole array cell (2.25 mm^2).
DEFAULT_PULL_WEIGHT = 0.05

#: Entries kept in the per-run FTI memo before it is cleared wholesale.
_FTI_MEMO_CAP = 8192


def require_delta(cost) -> None:
    """Raise :class:`TypeError` unless *cost* prices moves by ``delta``.

    The class (in the MRO) that defines the cost's effective
    ``__call__`` must also define ``delta``, and the cost must report
    its ``current`` value.
    """
    for klass in type(cost).__mro__:
        if "__call__" in vars(klass):
            if "delta" in vars(klass) and hasattr(cost, "current"):
                return
            break
    raise TypeError(
        f"{type(cost).__name__} has no delta matching its __call__: the "
        "annealer prices every proposal by delta cost"
    )


class AreaCost:
    """``alpha * area_mm2 + overlap_weight * overlap_volume`` (+ pull).

    The bounding-box area is *flat* with respect to interior modules —
    moving a module strictly inside the bbox changes nothing — which
    starves the annealer of gradient. The optional corner-pull term,
    ``pull_weight * sum(x2 + y2 over modules)``, gives every module a
    gentle drift toward the origin so compactions keep happening between
    the rare bbox-shrinking events. It is a tiebreaker, not an
    objective: its full range is well below one cell of area. Setting
    ``pull_weight=0`` recovers the paper's literal cost (ablation A-pull
    in the benchmarks quantifies the effect).
    """

    def __init__(
        self,
        alpha: float = 1.0,
        overlap_weight: float = DEFAULT_OVERLAP_WEIGHT,
        pull_weight: float = DEFAULT_PULL_WEIGHT,
    ) -> None:
        if overlap_weight <= 0:
            raise ValueError(
                f"overlap_weight must be positive (it keeps the annealer "
                f"honest), got {overlap_weight}"
            )
        if pull_weight < 0:
            raise ValueError(f"pull_weight must be >= 0, got {pull_weight}")
        self.alpha = alpha
        self.overlap_weight = overlap_weight
        self.pull_weight = pull_weight

    def __call__(self, placement: Placement) -> float:
        cost = (
            self.alpha * placement.area_mm2
            + self.overlap_weight * placement.overlap_volume()
        )
        if self.pull_weight:
            cost += self.pull_weight * sum(
                pm.footprint.x2 + pm.footprint.y2 for pm in placement
            )
        return cost

    def area_term(self, placement: Placement) -> float:
        """The pure area component (reported by experiment harnesses)."""
        return self.alpha * placement.area_mm2

    # -- incremental protocol -----------------------------------------------------

    def current(self, evaluator: IncrementalCostEvaluator) -> float:
        """This cost over the evaluator's running components."""
        cost = (
            self.alpha * evaluator.area_mm2
            + self.overlap_weight * evaluator.overlap_total
        )
        if self.pull_weight:
            cost += self.pull_weight * evaluator.pull_sum
        return cost

    def delta(self, evaluator: IncrementalCostEvaluator, move: tuple) -> float:
        """Change in this cost if *move* were applied."""
        d_area_mm2, d_overlap, d_pull, _ = evaluator.components(move)
        d = self.alpha * d_area_mm2 + self.overlap_weight * d_overlap
        if self.pull_weight:
            d += self.pull_weight * d_pull
        return d


class FaultAwareCost(AreaCost):
    """Stage-2 metric: ``alpha * area - beta * GAMMA * FTI`` (+ penalty).

    The FTI bonus is only granted to *feasible* placements — an
    overlapping configuration has no physical meaning, so rewarding its
    "coverage" would mislead the annealer. On the incremental path the
    feasibility gate is the evaluator's exact integer conflict counter,
    and FTI values are memoized in the evaluator by translation-
    normalized placement signature, so unchanged-footprint rounds (and
    revisits of recent configurations) never recompute the term.
    """

    def __init__(
        self,
        beta: float,
        alpha: float = 1.0,
        ft_gamma: float = DEFAULT_FT_GAMMA,
        overlap_weight: float = DEFAULT_OVERLAP_WEIGHT,
        pull_weight: float = DEFAULT_PULL_WEIGHT,
        allow_rotation: bool = True,
    ) -> None:
        super().__init__(
            alpha=alpha, overlap_weight=overlap_weight, pull_weight=pull_weight
        )
        if beta < 0:
            raise ValueError(f"beta must be >= 0, got {beta}")
        self.beta = beta
        self.ft_gamma = ft_gamma
        self.allow_rotation = allow_rotation

    def fti_report(self, placement: Placement) -> FTIReport:
        """The FTI analysis this cost sees for *placement*."""
        return compute_fti(placement, allow_rotation=self.allow_rotation)

    def __call__(self, placement: Placement) -> float:
        base = super().__call__(placement)
        overlap = placement.overlap_volume()
        if overlap > 0:
            return base
        report = self.fti_report(placement)
        return base - self.beta * self.ft_gamma * report.fti

    # -- incremental protocol -----------------------------------------------------

    def _memoized_fti(
        self, evaluator: IncrementalCostEvaluator, signature: tuple, build_placement
    ) -> float:
        key = (self.allow_rotation, signature)
        memo = evaluator.memo
        fti = memo.get(key)
        if fti is None:
            if len(memo) >= _FTI_MEMO_CAP:
                memo.clear()
            fti = self.fti_report(build_placement()).fti
            memo[key] = fti
        return fti

    def current(self, evaluator: IncrementalCostEvaluator) -> float:
        base = super().current(evaluator)
        if not evaluator.is_feasible:
            return base
        fti = self._memoized_fti(
            evaluator, evaluator.signature(), lambda: evaluator.placement
        )
        return base - self.beta * self.ft_gamma * fti

    def delta(self, evaluator: IncrementalCostEvaluator, move: tuple) -> float:
        # components() is cached on the evaluator, so the second call
        # (the first is inside super().delta()) is free.
        d = super().delta(evaluator, move)
        d_conflict_pairs = evaluator.components(move)[3]
        scale = self.beta * self.ft_gamma
        if scale:
            old_term = 0.0
            if evaluator.is_feasible:
                old_term = scale * self._memoized_fti(
                    evaluator, evaluator.signature(), lambda: evaluator.placement
                )
            new_term = 0.0
            if evaluator.conflict_pairs + d_conflict_pairs == 0:
                new_term = scale * self._memoized_fti(
                    evaluator,
                    evaluator.candidate_signature(move),
                    lambda: evaluator.candidate_placement(move),
                )
            d += old_term - new_term
        return d
