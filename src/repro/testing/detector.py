"""The capacitive sink sensor.

Reference [13]'s detection hardware is a capacitive sensing circuit at
the sink electrode: a droplet sitting on the sink changes the
electrode's capacitance by orders of magnitude, so arrival is a
threshold test. The sensor model exposes exactly what the hardware
observes — *arrival within a deadline, nothing else* — which is why
fault localization needs the adaptive procedure in
:mod:`repro.testing.localize` rather than just reading the stall
position out of the simulator.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.testing.test_droplet import TestOutcome

#: Capacitance of a dry sink electrode, picofarads (order of magnitude
#: for a 1.5 mm electrode with a 600 um gap and silicone-oil filler).
DRY_CAPACITANCE_PF = 0.06

#: Capacitance with an aqueous droplet present, picofarads. Water's
#: permittivity (~80) dwarfs the filler's (~2.7): a huge, easy margin.
WET_CAPACITANCE_PF = 1.8

#: Extra actuation steps the controller waits beyond a walk's length.
MARGIN_STEPS = 2


@dataclass(frozen=True)
class SinkObservation:
    """What the test controller learns from one test run."""

    #: True if capacitance crossed the wet threshold before the deadline.
    droplet_arrived: bool
    #: Modeled capacitance reading at the deadline, pF.
    capacitance_pf: float
    #: Actuation steps the controller waited (path length + margin).
    deadline_steps: int


class CapacitiveSensor:
    """Threshold detector on the sink electrode.

    The default sensor is ideal — the seed repo's perfect-knowledge
    model, and the closed-loop controller's ``oracle`` reference. Real
    sensing circuits misread: *false_positive_rate* is the probability
    a clean, arriving walk reads as a non-arrival (residual charge, a
    marginal threshold crossing — the controller sees a phantom fault),
    *false_negative_rate* the probability a genuinely stuck walk reads
    as an arrival (droplet fragments or filler contamination wetting
    the sink). *latency_s* is the read-out delay between the physical
    event and the controller learning of it. Noise draws come from the
    explicit *rng* passed to :meth:`observe` — never global state — so
    noisy campaigns stay deterministic under a fixed seed.
    """

    def __init__(
        self,
        threshold_pf: float = 0.5,
        false_positive_rate: float = 0.0,
        false_negative_rate: float = 0.0,
        latency_s: float = 0.0,
    ) -> None:
        if not DRY_CAPACITANCE_PF < threshold_pf < WET_CAPACITANCE_PF:
            raise ValueError(
                f"threshold {threshold_pf} pF must lie between dry "
                f"({DRY_CAPACITANCE_PF}) and wet ({WET_CAPACITANCE_PF}) readings"
            )
        for name, rate in (
            ("false_positive_rate", false_positive_rate),
            ("false_negative_rate", false_negative_rate),
        ):
            if not 0.0 <= rate < 1.0:
                raise ValueError(f"{name} must be in [0, 1), got {rate}")
        if latency_s < 0.0:
            raise ValueError(f"latency_s must be >= 0, got {latency_s}")
        self.threshold_pf = threshold_pf
        self.false_positive_rate = false_positive_rate
        self.false_negative_rate = false_negative_rate
        self.latency_s = latency_s

    @property
    def is_perfect(self) -> bool:
        """True when this sensor never misreads and reports instantly —
        the closed-loop controller's oracle-equivalence condition."""
        return (
            self.false_positive_rate == 0.0
            and self.false_negative_rate == 0.0
            and self.latency_s == 0.0
        )

    def observe(
        self, outcome: TestOutcome, rng: random.Random | None = None
    ) -> SinkObservation:
        """Convert a simulated walk into the controller-visible reading.

        Pass *rng* to realize read errors; without one the sensor reads
        ideally regardless of the configured rates (every historical
        caller keeps its exact behavior).
        """
        deadline = outcome.path_length + MARGIN_STEPS
        arrived = outcome.passed
        if rng is not None and arrived and self.false_positive_rate > 0.0:
            if rng.random() < self.false_positive_rate:
                arrived = False
        elif rng is not None and not arrived and self.false_negative_rate > 0.0:
            if rng.random() < self.false_negative_rate:
                arrived = True
        cap = WET_CAPACITANCE_PF if arrived else DRY_CAPACITANCE_PF
        return SinkObservation(
            droplet_arrived=cap >= self.threshold_pf and arrived,
            capacitance_pf=cap,
            deadline_steps=deadline,
        )
