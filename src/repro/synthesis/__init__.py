"""Architectural-level synthesis: resource binding + scheduling.

The paper's placement step consumes "a schedule of bioassay operation,
a set of microfluidic modules, and the binding of bioassay operations
to modules" (Section 4). This package produces those inputs from a
sequencing graph:

* :mod:`repro.synthesis.binder` maps operations to module specs.
* :mod:`repro.synthesis.scheduler` assigns start times
  (resource-constrained list scheduling).
* :mod:`repro.synthesis.flow` chains binding -> scheduling -> placement
  into the full top-down flow the paper envisages in its introduction.
"""

from repro.synthesis.architect import (
    ArchitecturalExplorer,
    DesignPoint,
    ExplorationResult,
)
from repro.synthesis.binder import Binding, ResourceBinder
from repro.synthesis.flow import SynthesisFlow, SynthesisResult
from repro.synthesis.schedule import Schedule
from repro.synthesis.scheduler import list_schedule

__all__ = [
    "ArchitecturalExplorer",
    "Binding",
    "DesignPoint",
    "ExplorationResult",
    "ResourceBinder",
    "Schedule",
    "SynthesisFlow",
    "SynthesisResult",
    "list_schedule",
]
