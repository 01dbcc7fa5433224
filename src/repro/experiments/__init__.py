"""Experiment harnesses regenerating every table and figure of the paper.

Each module reproduces one artifact of the evaluation (see DESIGN.md's
experiment index); :mod:`repro.experiments.runner` runs them all and
renders the paper-vs-measured report (``repro experiments --out FILE``
writes it to a file).
"""

from repro.experiments import paper_constants
from repro.experiments.fig2 import demonstrate_3d_reduction
from repro.experiments.fig4 import run_reconfiguration_example
from repro.experiments.fig5 import describe_pcr_graph
from repro.experiments.fig7 import run_min_area_experiment
from repro.experiments.fig8 import run_enhanced_experiment
from repro.experiments.pcr import pcr_case_study
from repro.experiments.table2 import run_beta_sweep

__all__ = [
    "demonstrate_3d_reduction",
    "describe_pcr_graph",
    "paper_constants",
    "pcr_case_study",
    "run_beta_sweep",
    "run_enhanced_experiment",
    "run_min_area_experiment",
    "run_reconfiguration_example",
]
