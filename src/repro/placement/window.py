"""The controlling window for single-module displacements.

Paper Section 4(c): long displacements almost always raise the cost, so
at low temperatures they are wasted proposals. The controlling window
caps the displacement distance as a function of temperature; when its
span reaches the minimum, annealing has effectively converged, and the
paper uses exactly that as the stopping criterion.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Smallest useful displacement (cells, per axis); reaching it stops the
#: annealer.
MIN_SPAN = 1


@dataclass(frozen=True)
class ControllingWindow:
    """Temperature-dependent displacement bound.

    The span shrinks as ``max_span * (T / initial_temp) ** gamma``
    (clamped to ``[MIN_SPAN, max_span]``): at the initial temperature a
    module may jump anywhere in the core; near freezing it may only
    shuffle by ``MIN_SPAN`` cells.
    """

    initial_temp: float
    #: Largest displacement (cells, per axis) at the initial temperature.
    max_span: int
    #: Shrink-rate exponent; larger means the window closes sooner.
    gamma: float = 0.5

    def __post_init__(self) -> None:
        if self.initial_temp <= 0:
            raise ValueError(f"initial_temp must be positive, got {self.initial_temp}")
        if self.max_span < MIN_SPAN:
            raise ValueError(
                f"max_span ({self.max_span}) must be >= {MIN_SPAN}"
            )
        if self.gamma <= 0:
            raise ValueError(f"gamma must be positive, got {self.gamma}")

    def span(self, temperature: float) -> int:
        """Displacement bound (cells, per axis) at *temperature*."""
        frac = max(0.0, min(1.0, temperature / self.initial_temp)) ** self.gamma
        return max(MIN_SPAN, round(self.max_span * frac))

    def is_frozen(self, temperature: float) -> bool:
        """True once the span has shrunk to its minimum (stop criterion)."""
        return self.span(temperature) == MIN_SPAN
