"""Fault localization by adaptive path bisection.

The sink sensor only reports pass/fail for a whole path, so finding
*which* cell failed requires multiple runs. With a single faulty cell
(the paper's fault model) the outcome of a prefix walk is monotone in
the prefix length — the walk passes iff the prefix stops short of the
fault — so binary search over prefix lengths finds the faulty cell in
``ceil(log2(n))`` test runs.

With a *noisy* sensor one misread flips a bisection branch and the
search walks off to an arbitrary cell. The mitigation is per-probe
majority voting: each prefix is walked *votes* times (an odd count)
and the majority reading decides the branch, bounding the campaign at
``votes * (1 + ceil(log2 n))`` runs while driving the per-branch error
rate from ``p`` to ``O(p^ceil(votes/2))``. A mislocalization that still
slips through is the closed-loop controller's problem — its
confirmation probes and stuck-droplet watchdog exist for exactly that.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.geometry import Point
from repro.testing.detector import CapacitiveSensor
from repro.testing.test_droplet import TestDroplet, TestOutcome


@dataclass(frozen=True)
class LocalizationResult:
    """Outcome of a localization campaign on one path."""

    faulty_cell: Point | None
    #: Number of test-droplet runs consumed.
    runs: int

    @property
    def fault_found(self) -> bool:
        """True when a faulty cell was pinpointed."""
        return self.faulty_cell is not None


class FaultLocalizer:
    """Pinpoints a single faulty cell using only sink observations.

    *votes* is the per-probe majority-vote width (odd, default 1 — the
    historical single-walk probe). Raise it when the sensor is noisy;
    leave it at 1 for an ideal sensor, where repeats are pure waste.
    """

    def __init__(self, sensor: CapacitiveSensor | None = None, votes: int = 1) -> None:
        if votes < 1 or votes % 2 == 0:
            raise ValueError(f"votes must be a positive odd count, got {votes}")
        self.sensor = sensor if sensor is not None else CapacitiveSensor()
        self.votes = votes
        self._droplet = TestDroplet()

    def localize(
        self,
        dead_cells: frozenset[Point],
        path: list[Point],
        rng: random.Random | None = None,
    ) -> LocalizationResult:
        """Find the first faulty cell on *path* (None if the path passes);
        *dead_cells* is the chip's true fault state, which only the
        walks observe.

        Runs a full-path test first; on failure, binary-searches prefix
        lengths. Pass *rng* to realize the sensor's configured read
        errors (omitted, the sensor reads ideally, as every historical
        caller expects).
        """
        # The physical walk is deterministic, so one walk of the full
        # path answers every prefix: a prefix of length m reaches the
        # sink iff m <= stall. Only the sensor readings vary.
        stall = self._droplet.walk(dead_cells, path).steps_taken
        ok, runs = self._probe(path, len(path), stall, rng)
        if ok:
            return LocalizationResult(faulty_cell=None, runs=runs)
        # Invariant: prefix of length lo passes; prefix of length hi fails.
        lo, hi = 0, len(path)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            ok, used = self._probe(path, mid, stall, rng)
            runs += used
            if ok:
                lo = mid
            else:
                hi = mid
        return LocalizationResult(faulty_cell=path[hi - 1], runs=runs)

    def _probe(
        self,
        path: list[Point],
        length: int,
        stall: int,
        rng: random.Random | None,
    ) -> tuple[bool, int]:
        """Majority-voted probe of the *length*-cell prefix of *path*,
        whose full walk took *stall* steps: ``(reading, runs used)``.

        Each vote re-dispenses a fresh droplet, as the hardware
        procedure would; the physical walk is deterministic, so every
        vote's walk has the outcome :meth:`TestDroplet.walk` gives the
        prefix, and only the sensor reading varies. Votes stop
        early once a majority is decided — with an ideal sensor (or no
        *rng*) that is after the first walk, keeping the historical run
        counts bit-identical.
        """
        arrives = length <= stall
        outcome = TestOutcome(
            passed=arrives,
            steps_taken=min(length, stall),
            path_length=length,
            stalled_before=None if arrives else path[stall],
        )
        passed = failed = 0
        need = self.votes // 2 + 1
        while passed < need and failed < need:
            if self.sensor.observe(outcome, rng).droplet_arrived:
                passed += 1
            else:
                failed += 1
        return passed >= need, passed + failed
