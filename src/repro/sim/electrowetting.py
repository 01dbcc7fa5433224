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

from repro.placement.model import DEFAULT_PITCH_MM

#: Threshold below which contact-angle hysteresis pins the droplet.
THRESHOLD_V = 12.0
#: Drive voltage achieving maximum velocity.
SATURATION_V = 90.0
#: Saturated droplet velocity, cm/s (paper: "up to 20 cm/s").
MAX_VELOCITY_CM_S = 20.0
#: Electrode drive voltage every transport runs at: a typical operating
#: point on the reference chips, inside the paper's 0-90 V actuation
#: range (comfortably above threshold, below saturation stress).
DRIVE_VOLTAGE = 65.0


def velocity_cm_s(voltage: float) -> float:
    """Steady droplet velocity at *voltage* (clamped quadratic)."""
    if voltage < 0:
        raise ValueError(f"voltage must be >= 0, got {voltage}")
    if voltage <= THRESHOLD_V:
        return 0.0
    v = min(voltage, SATURATION_V)
    frac = (v - THRESHOLD_V) / (SATURATION_V - THRESHOLD_V)
    return MAX_VELOCITY_CM_S * frac * frac


def step_time_s(voltage: float) -> float:
    """Seconds to advance one electrode pitch (``DEFAULT_PITCH_MM``, the
    paper's 1.5 mm, Table 1 footnote) at *voltage*.

    Raises ``ValueError`` below the actuation threshold — a stalled
    droplet never completes a step.
    """
    vel = velocity_cm_s(voltage)
    if vel == 0.0:
        raise ValueError(
            f"{voltage} V is at or below the {THRESHOLD_V} V actuation "
            "threshold; the droplet does not move"
        )
    return (DEFAULT_PITCH_MM / 10.0) / vel  # mm -> cm


def transport_time_s(cells: int) -> float:
    """Seconds to traverse *cells* electrode pitches at
    :data:`DRIVE_VOLTAGE`."""
    if cells < 0:
        raise ValueError(f"cells must be >= 0, got {cells}")
    return cells * step_time_s(DRIVE_VOLTAGE) if cells else 0.0
