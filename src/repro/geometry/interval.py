"""Half-open time intervals for module operation spans.

A module bound to an operation occupies its cells during ``[start,
stop)``. Half-open semantics mean a module finishing at t and another
starting at t may legally share cells — that is exactly the dynamic
reconfigurability the paper exploits ("Modules 1 and 3 can use the same
cells when their time-spans do not overlap").
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, order=True)
class Interval:
    """Half-open time interval ``[start, stop)`` in seconds."""

    start: float
    stop: float

    def __post_init__(self) -> None:
        if self.stop <= self.start:
            raise ValueError(f"Interval stop must exceed start, got [{self.start}, {self.stop})")

    @property
    def duration(self) -> float:
        """Length of the interval in seconds."""
        return self.stop - self.start

    def overlaps(self, other: "Interval") -> bool:
        """True if the two intervals share a positive-length span."""
        return self.start < other.stop and other.start < self.stop

    def overlap_duration(self, other: "Interval") -> float:
        """Length of the shared span (0 if disjoint)."""
        lo = max(self.start, other.start)
        hi = min(self.stop, other.stop)
        return max(0.0, hi - lo)

    def contains_time(self, t: float) -> bool:
        """True if instant *t* falls inside ``[start, stop)``."""
        return self.start <= t < self.stop

    def __str__(self) -> str:
        return f"[{self.start:g}, {self.stop:g})"
