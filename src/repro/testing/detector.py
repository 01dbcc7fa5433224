"""The capacitive sink sensor.

Reference [13]'s detection hardware is a capacitive sensing circuit at
the sink electrode. An aqueous droplet on the sink raises the
electrode's capacitance by more than an order of magnitude (water's
permittivity, ~80, dwarfs the silicone-oil filler's, ~2.7: about
1.8 pF wet against 0.06 pF dry for a 1.5 mm electrode with a 600 um
gap), so any threshold between the two readings separates them and
arrival is a clean threshold test. The sensor therefore reports
*arrival within a deadline, nothing else* — which is why fault
localization needs the adaptive procedure in
:mod:`repro.testing.localize` rather than just reading the stall
position out of the simulator. What the model keeps of the hardware is
how the reading goes wrong: misreads and read-out latency.
"""

from __future__ import annotations

import random
from collections.abc import Mapping
from dataclasses import dataclass

from repro.util.errors import UsageError


@dataclass(frozen=True)
class CapacitiveSensor:
    """Threshold detector on the sink electrode.

    The default sensor is ideal — the seed repo's perfect-knowledge
    model, and the closed-loop controller's ``oracle`` reference. Real
    sensing circuits misread: *false_positive_rate* is the probability
    a clean, arriving walk reads as a non-arrival (residual charge, a
    marginal threshold crossing — the controller sees a phantom fault),
    *false_negative_rate* the probability a genuinely stuck walk reads
    as an arrival (droplet fragments or filler contamination wetting
    the sink). Both lie in [0, 1). *latency_s* (>= 0) is the read-out
    delay between the physical event and the controller learning of
    it. Noise draws come from the explicit *rng* passed to
    :meth:`observe` — never global state — so noisy campaigns stay
    deterministic under a fixed seed.

    One sensor is also one sensor-fidelity point of a campaign grid:
    :meth:`parse` reads it from a config entry, :attr:`key` names it in
    scenario keys and :meth:`to_dict` writes it into log records.
    """

    false_positive_rate: float = 0.0
    false_negative_rate: float = 0.0
    latency_s: float = 0.0

    def __post_init__(self) -> None:
        for name, rate in (
            ("false_positive_rate", self.false_positive_rate),
            ("false_negative_rate", self.false_negative_rate),
        ):
            if not 0.0 <= rate < 1.0:
                raise ValueError(f"{name} must be in [0, 1), got {rate}")
        if not self.latency_s >= 0.0:
            raise ValueError(f"latency_s must be >= 0, got {self.latency_s}")

    @property
    def is_perfect(self) -> bool:
        """True when this sensor never misreads and reports instantly —
        the closed-loop controller's oracle-equivalence condition."""
        return (
            self.false_positive_rate == 0.0
            and self.false_negative_rate == 0.0
            and self.latency_s == 0.0
        )

    @property
    def key(self) -> str:
        """Canonical key fragment (``ideal`` for a perfect sensor)."""
        if self.is_perfect:
            return "ideal"
        return (
            f"fpr={self.false_positive_rate:g},"
            f"fnr={self.false_negative_rate:g},"
            f"latency={self.latency_s:g}"
        )

    def to_dict(self) -> dict:
        return {
            "fpr": self.false_positive_rate,
            "fnr": self.false_negative_rate,
            "latency_s": self.latency_s,
        }

    @classmethod
    def parse(cls, raw: object) -> CapacitiveSensor:
        """Parse a config entry: ``"ideal"``, ``"fpr=0.05,fnr=0.1"``,
        or a mapping with ``fpr``/``fnr``/``latency`` keys. ``latency_s``
        is accepted for ``latency``, so :meth:`to_dict` round-trips.
        Any malformed or out-of-range entry is a :class:`UsageError`."""
        if isinstance(raw, Mapping):
            raw = ",".join(f"{k}={v}" for k, v in raw.items())
        if not isinstance(raw, str):
            raise UsageError(f"sensor spec must be a string or table, got {raw!r}")
        if raw.strip() in ("", "ideal"):
            return cls()
        fields = {"fpr": 0.0, "fnr": 0.0, "latency": 0.0}
        for part in raw.split(","):
            k, sep, v = part.partition("=")
            k = "latency" if k.strip() == "latency_s" else k.strip()
            if not sep or k not in fields:
                raise UsageError(
                    f"bad sensor spec {raw!r}: expected comma-joined "
                    f"fpr=/fnr=/latency= assignments or 'ideal'"
                )
            try:
                fields[k] = float(v)
            except ValueError:
                raise UsageError(
                    f"bad sensor spec {raw!r}: {v!r} is not a number"
                ) from None
        try:
            return cls(fields["fpr"], fields["fnr"], fields["latency"])
        except ValueError as exc:
            raise UsageError(f"bad sensor spec {raw!r}: {exc}") from None

    def observe(self, arrived: bool, rng: random.Random) -> bool:
        """The controller-visible reading of a walk that *arrived* at
        the sink or not: ``True`` reads as an arrival.

        A read error costs one draw from *rng*, made only when the
        matching rate is nonzero, so an ideal sensor never draws.
        """
        if arrived:
            if self.false_positive_rate > 0.0:
                return rng.random() >= self.false_positive_rate
        elif self.false_negative_rate > 0.0:
            return rng.random() < self.false_negative_rate
        return arrived
