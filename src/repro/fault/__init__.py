"""Fault tolerance and dynamic reconfiguration (paper Section 5).

The paper's fault model is a single faulty cell, detected on-line by the
test methodology of refs [13]/[14] (simulated in :mod:`repro.testing`).
Tolerance is achieved by *partial reconfiguration*: relocating the
module that contains the faulty cell to fault-free unused cells. This
package provides:

* :mod:`repro.fault.staircase` — the staircase data structure of
  Edmonds et al. used to mine empty spaces;
* :mod:`repro.fault.mer` — maximal-empty-rectangle enumeration by the
  staircase sweep;
* :mod:`repro.fault.fti` — the fault tolerance index, FTI = k/(m*n),
  by position counting on a bitboard;
* :mod:`repro.fault.reconfigure` — the on-line partial reconfiguration
  engine;
* :mod:`repro.fault.injection` — seeded street-fault sampling for
  routing scenarios;
* :mod:`repro.fault.models` — the fault layer: the timed
  :class:`FaultEvent` timelines of the five pinned fault models
  (permanent, transient, intermittent, wear-out, clustered) that drive
  the closed-loop recovery controller, and the design-time defect
  patterns.

The Monte-Carlo survival estimate that cross-checks the FTI is
:meth:`ToleranceAnalyzer.multi_fault_survival` with ``max_faults=1``.
"""

from repro.fault.fti import FTIReport, ModuleRelocatability, compute_fti
from repro.fault.models import FAULT_MODELS, FaultEvent
from repro.fault.mer import find_maximal_empty_rectangles
from repro.fault.reconfigure import PartialReconfigurer, ReconfigurationPlan, Relocation
from repro.fault.staircase import Staircase, Step
from repro.fault.tolerance import (
    ModuleCriticality,
    MultiFaultResult,
    SpareStatistics,
    ToleranceAnalyzer,
)

__all__ = [
    "FAULT_MODELS",
    "FTIReport",
    "FaultEvent",
    "ModuleCriticality",
    "ModuleRelocatability",
    "MultiFaultResult",
    "PartialReconfigurer",
    "ReconfigurationPlan",
    "Relocation",
    "SpareStatistics",
    "Staircase",
    "Step",
    "ToleranceAnalyzer",
    "compute_fti",
    "find_maximal_empty_rectangles",
]
