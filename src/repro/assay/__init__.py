"""Bioassay behavioral models.

The synthesis flow starts from a *sequencing graph* — a DAG of assay
operations with data (droplet) dependencies, the biochip analogue of a
behavioral HDL model (paper Section 1). This package defines the
operation vocabulary, the graph container, and builders for concrete
protocols: the paper's PCR mixing stage (Figure 5) plus two protocols
from the application domains the paper's introduction motivates.
"""

from repro.assay.graph import SequencingGraph
from repro.assay.operations import Operation, OperationType
from repro.assay.protocols.dilution import build_serial_dilution_graph
from repro.assay.protocols.glucose import build_multiplexed_diagnostics_graph
from repro.assay.protocols.pcr import PCR_BINDING, build_pcr_mixing_graph
from repro.assay.synthetic import build_mix_tree

__all__ = [
    "Operation",
    "OperationType",
    "PCR_BINDING",
    "SequencingGraph",
    "build_mix_tree",
    "build_multiplexed_diagnostics_graph",
    "build_pcr_mixing_graph",
    "build_serial_dilution_graph",
]
