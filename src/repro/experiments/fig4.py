"""Figure 4: initial placement and a partial-reconfiguration example.

Figure 4(a) is the constructive initial placement inside the core
area; Figure 4(b) shows a module relocated off a faulty cell onto
fault-free unused cells. This experiment regenerates both on the PCR
case study and reports the relocation record.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.fault.reconfigure import PartialReconfigurer, ReconfigurationPlan
from repro.geometry import Point
from repro.placement.annealer import AnnealingParams
from repro.placement.greedy import build_placed_modules
from repro.placement.initial import constructive_initial_placement
from repro.placement.model import Placement
from repro.placement.sa_placer import SimulatedAnnealingPlacer
from repro.experiments.pcr import pcr_case_study


@dataclass(frozen=True)
class ReconfigurationExample:
    """The data behind Figure 4."""

    initial_placement: Placement
    placement_before: Placement
    placement_after: Placement
    faulty_cell: Point
    plan: ReconfigurationPlan

    @property
    def moved_modules(self) -> tuple[str, ...]:
        """Relocated op ids."""
        return self.plan.moved_ops

    @property
    def migration_distance(self) -> int:
        """Total Manhattan relocation distance."""
        return self.plan.total_migration_distance


#: Spare columns and rows added to the placed core (see
#: :func:`run_reconfiguration_example`).
_ROOM = 3


def run_reconfiguration_example(seed: int = 23) -> ReconfigurationExample:
    """Fault a used cell of a placed PCR assay and relocate around it.

    Three columns/rows of slack are added to the core so a
    relocation target exists — Figure 4(b) likewise shows spare cells
    absorbing the faulty module.
    """
    study = pcr_case_study()
    modules = build_placed_modules(study.schedule, study.binding)

    # Figure 4(a): the constructive initial placement in the core area.
    initial = constructive_initial_placement(modules, 12, 12)

    placer = SimulatedAnnealingPlacer(params=AnnealingParams.fast(), seed=seed)
    placed = placer.place(study.schedule, study.binding).placement
    w, h = placed.array_dims()
    room = Placement(w + _ROOM, h + _ROOM, pitch_mm=placed.pitch_mm)
    for pm in placed:
        room.add(pm)

    # Fault the first functional cell of the longest-running module —
    # the hardest single relocation in the configuration.
    victim = max(room, key=lambda pm: pm.interval.duration)
    faulty = next(iter(victim.functional_region.cells()))
    after, plan = PartialReconfigurer().apply(room, faulty)
    return ReconfigurationExample(
        initial_placement=initial,
        placement_before=room,
        placement_after=after,
        faulty_cell=faulty,
        plan=plan,
    )
