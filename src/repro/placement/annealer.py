"""The simulated-annealing engine (paper Figure 3).

A direct transcription of the paper's pseudocode: an inner loop of ``N
= Na x Nm`` proposals per temperature, Metropolis acceptance
(``delta < 0`` or ``r < exp(-delta / T)``), geometric cooling ``T <-
alpha x T``, and a stopping criterion tied to the controlling window
reaching its minimum span. The engine anneals placements in place over
an :class:`~repro.placement.incremental.IncrementalCostEvaluator`:
proposals are the move tuples of
:class:`~repro.placement.moves.MoveGenerator`, priced by the cost's
``delta``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from repro.placement.window import ControllingWindow
from repro.util.rng import ensure_rng


@dataclass(frozen=True)
class AnnealingParams:
    """Annealing schedule knobs (paper Section 4(d) defaults)."""

    #: Initial temperature; the paper picks 10000 so that "almost every
    #: new placement can be accepted" initially.
    initial_temp: float = 10000.0
    #: Geometric cooling rate alpha (paper: 0.9).
    cooling: float = 0.9
    #: Inner-loop iterations per module per temperature, Na (paper: 400).
    iterations_per_module: int = 400
    #: Hard floor on temperature (safety stop below any useful scale).
    min_temp: float = 1e-4
    #: Stop after the controlling window has been frozen this many
    #: consecutive temperature rounds.
    freeze_rounds: int = 3
    #: Optional hard cap on temperature rounds.
    max_rounds: int | None = None
    #: Controlling-window shrink exponent (see ControllingWindow.gamma).
    #: Tuned so the window freezes when T has cooled to order 1 — the
    #: scale of single-cell area deltas in mm^2 — ensuring the annealer
    #: gets an exploitation phase before the stop criterion fires.
    window_gamma: float = 0.27

    def __post_init__(self) -> None:
        if self.initial_temp <= 0:
            raise ValueError(f"initial_temp must be positive, got {self.initial_temp}")
        if not 0.0 < self.cooling < 1.0:
            raise ValueError(f"cooling must be in (0, 1), got {self.cooling}")
        if self.iterations_per_module < 1:
            raise ValueError(
                f"iterations_per_module must be >= 1, got {self.iterations_per_module}"
            )
        if self.min_temp <= 0:
            # A zero floor lets the temperature underflow to 0.0, and the
            # Metropolis test then divides by it.
            raise ValueError(f"min_temp must be positive, got {self.min_temp}")
        if self.freeze_rounds < 1:
            raise ValueError(f"freeze_rounds must be >= 1, got {self.freeze_rounds}")
        if self.max_rounds is not None and self.max_rounds < 1:
            raise ValueError(f"max_rounds must be >= 1 or None, got {self.max_rounds}")

    # -- presets ---------------------------------------------------------------------

    @classmethod
    def paper(cls) -> "AnnealingParams":
        """The paper's published schedule (T0=10000, alpha=0.9, Na=400)."""
        return cls()

    @classmethod
    def balanced(cls) -> "AnnealingParams":
        """Good quality at a fraction of the paper's proposal count."""
        return cls(
            initial_temp=2000.0,
            cooling=0.85,
            iterations_per_module=120,
            window_gamma=0.31,
        )

    @classmethod
    def fast(cls) -> "AnnealingParams":
        """Small schedule for unit tests and smoke runs."""
        return cls(
            initial_temp=500.0,
            cooling=0.8,
            iterations_per_module=40,
            freeze_rounds=2,
            window_gamma=0.37,
        )

    @classmethod
    def low_temperature(cls) -> "AnnealingParams":
        """LTSA refinement stage (paper Section 6.1): start cool, move
        little, converge quickly."""
        return cls(
            initial_temp=50.0,
            cooling=0.85,
            iterations_per_module=80,
            freeze_rounds=2,
            window_gamma=0.35,
        )

    def make_window(self, max_span: int, min_span: int = 1) -> ControllingWindow:
        """Build the controlling window matching this schedule."""
        return ControllingWindow(
            initial_temp=self.initial_temp,
            max_span=max(max_span, min_span),
            min_span=min_span,
            gamma=self.window_gamma,
        )


@dataclass
class AnnealingStats:
    """Bookkeeping from one annealing run."""

    rounds: int = 0
    evaluations: int = 0
    acceptances: int = 0
    improvements: int = 0
    initial_cost: float = math.nan
    best_cost: float = math.nan
    final_temp: float = math.nan
    stop_reason: str = ""
    #: One entry per temperature round: (temperature, current, best).
    #: Only recorded when the engine runs with ``record_history=True``
    #: (portfolio runs disable it — N instances of per-round tuples are
    #: dead weight crossing process boundaries).
    history: list[tuple[float, float, float]] = field(default_factory=list)

    @property
    def acceptance_ratio(self) -> float:
        """Fraction of proposals accepted over the whole run."""
        return self.acceptances / self.evaluations if self.evaluations else 0.0


class SimulatedAnnealing:
    """Metropolis annealer with geometric cooling."""

    def __init__(
        self,
        params: AnnealingParams | None = None,
        window: ControllingWindow | None = None,
        seed: int | random.Random | None = None,
    ) -> None:
        self.params = params if params is not None else AnnealingParams()
        self.window = window
        self._rng = ensure_rng(seed)

    def optimize_incremental(
        self,
        evaluator,
        cost,
        mover,
        inner_iterations: int,
        record_history: bool = True,
    ):
        """Delta-cost annealing over an incremental evaluator.

        One loop proposes a move tuple (the kernel of ``mover.bind``),
        prices it through *cost*'s ``delta``/``current`` protocol and
        applies it in place on the *evaluator* (an :class:`~repro.
        placement.incremental.IncrementalCostEvaluator`) — so one
        proposal costs O(time-neighbors) instead of an O(n^2) full
        recompute, and builds no placement object. The running cost is
        resynced from the evaluator every temperature round, so float
        drift never survives a round boundary.

        Returns ``(best_placement, stats)``; the best placement is
        materialized once, from a snapshot of the index records.
        """
        if inner_iterations < 1:
            raise ValueError(f"inner_iterations must be >= 1, got {inner_iterations}")
        p = self.params
        stats = AnnealingStats()
        current_cost = cost.current(evaluator)
        best, best_cost = evaluator.snapshot(), current_cost
        stats.initial_cost = current_cost

        propose = mover.bind(evaluator)
        span_at = mover.window.span
        rand = self._rng.random
        exp = math.exp
        delta_fn = cost.delta
        apply_fn = evaluator.apply
        acceptances = improvements = 0

        temperature = p.initial_temp
        frozen_streak = 0
        while True:
            stats.rounds += 1
            span = span_at(temperature)
            for _ in range(inner_iterations):
                move = propose(span)
                delta = delta_fn(evaluator, move)
                if delta < 0 or rand() < exp(-delta / temperature):
                    apply_fn(move)
                    current_cost += delta
                    acceptances += 1
                    if current_cost < best_cost:
                        # Confirm with exact arithmetic before snapshotting:
                        # the accumulated cost carries ~1e-13 float drift,
                        # enough to turn an equal-cost state into a spurious
                        # "improvement" (true improvements come in quanta of
                        # at least the pull weight, far above drift). Rare
                        # enough that the O(n^2) resync is free.
                        evaluator.resync()
                        current_cost = cost.current(evaluator)
                        if current_cost < best_cost:
                            best, best_cost = evaluator.snapshot(), current_cost
                            improvements += 1
            stats.evaluations += inner_iterations
            # Round-boundary resync: rebuild the running sums and the
            # carried cost so float drift cannot accumulate.
            evaluator.resync()
            current_cost = cost.current(evaluator)
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
        return evaluator.placement_of(best), stats

    def _advance(
        self, stats: AnnealingStats, temperature: float, frozen_streak: int
    ) -> tuple[float, int, bool]:
        """Shared cooling/stop logic: ``(temperature, streak, keep_going)``.

        A ``min-temp`` stop returns the *cooled* temperature (it is what
        tripped the floor); the other stop reasons return it uncooled —
        matching what ``stats.final_temp`` has always reported.
        """
        p = self.params
        if self.window is not None and self.window.is_frozen(temperature):
            frozen_streak += 1
        else:
            frozen_streak = 0
        if self.window is not None and frozen_streak >= p.freeze_rounds:
            stats.stop_reason = "window-frozen"
            return temperature, frozen_streak, False
        if p.max_rounds is not None and stats.rounds >= p.max_rounds:
            stats.stop_reason = "max-rounds"
            return temperature, frozen_streak, False
        temperature *= p.cooling
        if temperature < p.min_temp:
            stats.stop_reason = "min-temp"
            return temperature, frozen_streak, False
        return temperature, frozen_streak, True
