"""Fault tolerance and dynamic reconfiguration (paper Section 5).

The paper's fault model is a single faulty cell, detected on-line by the
test methodology of refs [13]/[14] (simulated in :mod:`repro.testing`).
Tolerance is achieved by *partial reconfiguration*: relocating the
module that contains the faulty cell to fault-free unused cells. This
package provides:

* :mod:`repro.fault.fti` — the fault tolerance index, FTI = k/(m*n),
  by position counting on a bitboard;
* :mod:`repro.fault.reconfigure` — the on-line partial reconfiguration
  engine: the nearest fault-free origin, found by eroding the free
  cells of the same bitboard;
* :mod:`repro.fault.injection` — seeded street-fault sampling for
  routing scenarios;
* :mod:`repro.fault.models` — the fault layer: the timed
  :class:`FaultEvent` timelines of the five pinned fault models
  (permanent, transient, intermittent, wear-out, clustered) that drive
  the closed-loop recovery controller, and the design-time defect
  patterns.

The Monte-Carlo survival estimate that cross-checks the FTI is
:meth:`ToleranceAnalyzer.multi_fault_survival` with ``max_faults=1``.
The paper's maximal-empty-rectangle (MER) staircase sweep is not part
of the package: it is the test oracle both the FTI and relocation are
held to (``tests/oracles/mer.py``).
"""

from repro.fault.fti import FTIReport, ModuleRelocatability, compute_fti
from repro.fault.models import FAULT_MODELS, FaultEvent
from repro.fault.reconfigure import PartialReconfigurer, ReconfigurationPlan, Relocation
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
    "ToleranceAnalyzer",
    "compute_fti",
]
