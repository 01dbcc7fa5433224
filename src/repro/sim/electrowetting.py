"""Electrowetting actuation model.

Paper Section 2: droplet velocity is controlled by the actuation
voltage, ranging up to ~20 cm/s over a 0-90 V drive on the Duke chips
(Pollack [2], [8]). The standard first-order picture: the electrowetting
force scales with V^2 above a contact-angle-hysteresis threshold, and
viscous drag makes steady-state velocity roughly proportional to the
driving force until saturation. We model exactly that — a clamped
quadratic — which is enough to convert routing distances into transport
times for the simulator.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.placement.model import DEFAULT_PITCH_MM


@dataclass(frozen=True)
class ElectrowettingModel:
    """Voltage -> velocity -> per-cell transport time."""

    #: Threshold below which contact-angle hysteresis pins the droplet.
    threshold_v: float = 12.0
    #: Drive voltage achieving maximum velocity.
    saturation_v: float = 90.0
    #: Saturated droplet velocity, cm/s (paper: "up to 20 cm/s").
    max_velocity_cm_s: float = 20.0
    #: Electrode pitch, mm (paper Table 1 footnote: 1.5 mm).
    pitch_mm: float = DEFAULT_PITCH_MM

    def __post_init__(self) -> None:
        if not 0 < self.threshold_v < self.saturation_v:
            raise ValueError(
                f"need 0 < threshold ({self.threshold_v}) < saturation "
                f"({self.saturation_v})"
            )
        if self.max_velocity_cm_s <= 0:
            raise ValueError(f"max velocity must be positive, got {self.max_velocity_cm_s}")

    def velocity_cm_s(self, voltage: float) -> float:
        """Steady droplet velocity at *voltage* (clamped quadratic)."""
        if voltage < 0:
            raise ValueError(f"voltage must be >= 0, got {voltage}")
        if voltage <= self.threshold_v:
            return 0.0
        v = min(voltage, self.saturation_v)
        frac = (v - self.threshold_v) / (self.saturation_v - self.threshold_v)
        return self.max_velocity_cm_s * frac * frac

    def step_time_s(self, voltage: float) -> float:
        """Seconds to advance one electrode pitch at *voltage*.

        Raises ``ValueError`` below the actuation threshold — a stalled
        droplet never completes a step.
        """
        vel = self.velocity_cm_s(voltage)
        if vel == 0.0:
            raise ValueError(
                f"{voltage} V is at or below the {self.threshold_v} V actuation "
                "threshold; the droplet does not move"
            )
        return (self.pitch_mm / 10.0) / vel  # mm -> cm

    def transport_time_s(self, cells: int, voltage: float = 65.0) -> float:
        """Seconds to traverse *cells* electrode pitches at *voltage*.

        The 65 V default is a typical operating point on the reference
        chips (comfortably above threshold, below saturation stress).
        """
        if cells < 0:
            raise ValueError(f"cells must be >= 0, got {cells}")
        return cells * self.step_time_s(voltage) if cells else 0.0
