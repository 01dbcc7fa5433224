"""Concurrent (on-line) testing around a running assay.

Reference [14]'s idea: testing need not wait for the assay to finish —
at any instant, the cells not covered by operating modules form free
regions that test droplets can sweep. This module plans such campaigns
against a placement and executes them, producing the faulty-cell
reports that feed :class:`repro.fault.reconfigure.PartialReconfigurer`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.geometry import Point
from repro.placement.model import Placement
from repro.testing.localize import FaultLocalizer, LocalizationResult
from repro.testing.test_droplet import free_cell_paths


@dataclass(frozen=True)
class OnlineTestPlan:
    """Test walks planned for one instant of the schedule."""

    at_time: float
    paths: tuple[tuple[Point, ...], ...]

    @property
    def cells_covered(self) -> frozenset[Point]:
        """Distinct cells some walk visits."""
        return frozenset(p for path in self.paths for p in path)

    @property
    def total_steps(self) -> int:
        """Actuation steps across all walks (test time proxy)."""
        return sum(len(path) for path in self.paths)


@dataclass(frozen=True)
class OnlineTestReport:
    """Result of executing a campaign."""

    plan: OnlineTestPlan
    #: Faulty cells found, in discovery order.
    faults_found: tuple[Point, ...]
    #: Total test-droplet dispenses used (including localization probes).
    runs: int


class OnlineTester:
    """Plans and executes concurrent test campaigns."""

    def __init__(self, localizer: FaultLocalizer | None = None) -> None:
        self.localizer = localizer if localizer is not None else FaultLocalizer()

    def plan(
        self,
        placement: Placement,
        at_time: float,
        width: int | None = None,
        height: int | None = None,
    ) -> OnlineTestPlan:
        """Plan walks over the cells free at *at_time*.

        One walk per connected free region; regions fully enclosed by
        module footprints still get a walk (a real controller would
        dispense into them before the surrounding modules activate —
        we model the walk, not the entry logistics).
        """
        paths = free_cell_paths(placement, at_time, width=width, height=height)
        return OnlineTestPlan(
            at_time=at_time, paths=tuple(tuple(p) for p in paths)
        )

    def execute(
        self, dead_cells: frozenset[Point], plan: OnlineTestPlan
    ) -> OnlineTestReport:
        """Run every walk of *plan* on a chip whose dead cells are
        *dead_cells*, localizing failures.

        A walk that fails is re-run through the localizer; the faulty
        cell is recorded and the remainder of that walk is skipped (the
        paper's single-fault model makes frequent short campaigns the
        norm — one fault per campaign). The sensor reads ideally here.
        """
        faults: list[Point] = []
        runs = 0
        for path in plan.paths:
            result: LocalizationResult = self.localizer.localize(dead_cells, list(path))
            runs += result.runs
            if result.fault_found:
                assert result.faulty_cell is not None
                faults.append(result.faulty_cell)
        return OnlineTestReport(plan=plan, faults_found=tuple(faults), runs=runs)

    def coverage_over_schedule(self, placement: Placement) -> dict[float, OnlineTestPlan]:
        """Plan a campaign at every configuration-change instant.

        Between consecutive event times the set of active modules is
        constant, so testing once per event interval covers every cell
        that is ever free.
        """
        plans = {}
        for t in placement.event_times():
            if t >= placement.makespan():
                break
            plans[t] = self.plan(placement, t)
        return plans
