"""Concrete protocol builders.

* :mod:`repro.assay.protocols.pcr` — the paper's case study (Figure 5).
* :mod:`repro.assay.protocols.dilution` — serial dilution, a staple of
  sample preparation on DMFBs.
* :mod:`repro.assay.protocols.glucose` — multiplexed in-vitro
  diagnostics (the clinical-diagnosis workload the paper's introduction
  motivates, after Srinivasan et al. [4]).
"""

from repro.assay.protocols.dilution import build_serial_dilution_graph
from repro.assay.protocols.glucose import build_multiplexed_diagnostics_graph
from repro.assay.protocols.pcr import PCR_BINDING, build_pcr_mixing_graph

__all__ = [
    "PCR_BINDING",
    "build_multiplexed_diagnostics_graph",
    "build_pcr_mixing_graph",
    "build_serial_dilution_graph",
]
